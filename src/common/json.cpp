#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/expect.hpp"

namespace choir::json {

std::string number_repr(double value) {
  CHOIR_EXPECT(!std::isnan(value), "refusing to serialize NaN");
  CHOIR_EXPECT(!std::isinf(value), "refusing to serialize infinity");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- Writer -------------------------------------------------------------

void Writer::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
}

void Writer::begin_object() {
  comma();
  out_ += '{';
  need_comma_.push_back(false);
}

void Writer::end_object() {
  CHOIR_EXPECT(!need_comma_.empty(), "end_object with no open container");
  need_comma_.pop_back();
  out_ += '}';
}

void Writer::begin_array() {
  comma();
  out_ += '[';
  need_comma_.push_back(false);
}

void Writer::end_array() {
  CHOIR_EXPECT(!need_comma_.empty(), "end_array with no open container");
  need_comma_.pop_back();
  out_ += ']';
}

void Writer::key(const std::string& name) {
  comma();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  after_key_ = true;
}

void Writer::string(const std::string& value) {
  comma();
  out_ += '"';
  out_ += escape(value);
  out_ += '"';
}

void Writer::number(double value) {
  comma();
  out_ += number_repr(value);
}

void Writer::number(std::int64_t value) {
  comma();
  out_ += std::to_string(value);
}

void Writer::number(std::uint64_t value) {
  comma();
  out_ += std::to_string(value);
}

void Writer::boolean(bool value) {
  comma();
  out_ += value ? "true" : "false";
}

void Writer::null() {
  comma();
  out_ += "null";
}

// --- Value --------------------------------------------------------------

const Value* Value::find(const std::string& name) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [key, value] : object) {
    if (key == name) return &value;
  }
  return nullptr;
}

// --- Parser -------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    CHOIR_EXPECT(pos_ == text_.size(), "trailing bytes after JSON document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    CHOIR_EXPECT(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    CHOIR_EXPECT(peek() == c,
                 std::string("expected '") + c + "' at byte " +
                     std::to_string(pos_));
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value value() {
    skip_ws();
    const char c = peek();
    Value v;
    switch (c) {
      case '{': return object();
      case '[': return array();
      case '"':
        v.kind = Value::Kind::kString;
        v.string_value = string();
        return v;
      case 't':
        CHOIR_EXPECT(consume_literal("true"), "malformed literal");
        v.kind = Value::Kind::kBool;
        v.bool_value = true;
        return v;
      case 'f':
        CHOIR_EXPECT(consume_literal("false"), "malformed literal");
        v.kind = Value::Kind::kBool;
        return v;
      case 'n':
        CHOIR_EXPECT(consume_literal("null"), "malformed literal");
        return v;
      default: return number();
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      CHOIR_EXPECT(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      CHOIR_EXPECT(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          CHOIR_EXPECT(pos_ + 4 <= text_.size(), "truncated \\u escape");
          const unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The writer only emits \u00xx for control bytes; decode the
          // BMP code point as UTF-8 for generality.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          CHOIR_EXPECT(false, std::string("bad escape: \\") + esc);
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    CHOIR_EXPECT(pos_ > start, "expected a JSON value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double parsed = std::strtod(token.c_str(), &end);
    CHOIR_EXPECT(end != nullptr && *end == '\0',
                 "malformed number: " + token);
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number_value = parsed;
    v.number_text = token;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void write_value(Writer& w, const Value& v) {
  switch (v.kind) {
    case Value::Kind::kNull: w.null(); break;
    case Value::Kind::kBool: w.boolean(v.bool_value); break;
    case Value::Kind::kNumber: w.number(v.number_value); break;
    case Value::Kind::kString: w.string(v.string_value); break;
    case Value::Kind::kArray:
      w.begin_array();
      for (const Value& item : v.array) write_value(w, item);
      w.end_array();
      break;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.object) {
        w.key(key);
        write_value(w, member);
      }
      w.end_object();
      break;
  }
}

}  // namespace

Value parse(const std::string& text) { return Parser(text).document(); }

std::string write(const Value& value) {
  Writer w;
  write_value(w, value);
  return w.str();
}

}  // namespace choir::json
