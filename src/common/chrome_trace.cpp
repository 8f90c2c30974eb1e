#include "common/chrome_trace.hpp"

#include <cstdio>

#include "common/json.hpp"

namespace choir {

ChromeTraceWriter::ChromeTraceWriter(bool display_ns)
    : out_(display_ns ? "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
                      : "{\"traceEvents\":[") {}

ChromeTraceWriter& ChromeTraceWriter::event(const std::string& name,
                                            const char* cat, const char* ph) {
  if (open_) out_ += '}';
  if (!first_) out_ += ',';
  first_ = false;
  open_ = true;
  out_ += "{\"name\":\"" + json::escape(name) + '"';
  if (cat != nullptr) string("cat", cat);
  return string("ph", ph);
}

ChromeTraceWriter& ChromeTraceWriter::number(const char* key,
                                             std::uint64_t value) {
  out_ += ",\"" + std::string(key) + "\":" + std::to_string(value);
  return *this;
}

ChromeTraceWriter& ChromeTraceWriter::string(const char* key,
                                             const std::string& value) {
  out_ += ",\"" + std::string(key) + "\":\"" + json::escape(value) + '"';
  return *this;
}

ChromeTraceWriter& ChromeTraceWriter::time(const char* key, double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.3f", key, ns / 1000.0);
  out_ += buf;
  return *this;
}

ChromeTraceWriter& ChromeTraceWriter::args(const std::string& object_json) {
  out_ += ",\"args\":" + object_json;
  return *this;
}

std::string ChromeTraceWriter::finish() {
  if (open_) out_ += '}';
  open_ = false;
  out_ += "]}\n";
  return std::move(out_);
}

}  // namespace choir
