// Minimal JSON support for byte-deterministic machine-readable artifacts.
//
// The repo's contract for every machine-readable artifact (divergence
// .jsonl, BENCH_*.json, ...) is byte determinism: the same seed and
// scale must produce the same bytes, so CI can diff files instead of
// parsing them. That rules out any library that reorders keys or
// formats doubles "helpfully". This writer emits keys in exactly the
// order the caller supplies them, prints doubles with %.17g (the
// shortest form that round-trips an IEEE double, matching
// divergence.jsonl), and refuses NaN/inf outright — a NaN in a bench
// artifact is a bug upstream, not something to serialize as `null`.
//
// The parser accepts the subset the writer produces (objects, arrays,
// strings, numbers, bools, null) plus arbitrary whitespace, and keeps
// object keys in file order so a parse→write round trip is the
// identity on our own artifacts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace choir::json {

/// Render a double exactly as the writer does (%.17g). Throws
/// choir::Error on NaN or infinity.
std::string number_repr(double value);

/// Escape a string's contents for embedding between quotes.
std::string escape(const std::string& raw);

/// Streaming writer with explicit structure. Usage:
///
///   json::Writer w;
///   w.begin_object();
///   w.key("name"); w.string("fig4");
///   w.key("kappa"); w.number(0.9853);
///   w.key("runs"); w.begin_array(); w.number(5); w.end_array();
///   w.end_object();
///   std::string out = w.str();
///
/// The writer never reorders or deduplicates anything: what you call is
/// what lands in the file, which is the whole point.
class Writer {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& name);
  void string(const std::string& value);
  void number(double value);   ///< %.17g; throws on NaN/inf
  void number(std::int64_t value);
  void number(std::uint64_t value);
  void boolean(bool value);
  void null();

  const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  /// One entry per open container: whether a value has been emitted at
  /// this level (controls comma placement).
  std::vector<bool> need_comma_;
  bool after_key_ = false;
};

/// Parsed JSON value. Objects preserve key order.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value* find(const std::string& name) const;
};

/// Parse a complete JSON document; throws choir::Error on malformed
/// input or trailing garbage.
Value parse(const std::string& text);

/// Re-emit a parsed value through the deterministic writer (object key
/// order preserved). parse(write(v)) == v for writer-produced input.
std::string write(const Value& value);

}  // namespace choir::json
