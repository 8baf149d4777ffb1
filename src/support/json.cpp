#include "support/json.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstring>

namespace fullweb::support {

namespace {

constexpr std::size_t kMaxDepth = 256;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto value = parse_value();
    skip_ws();
    if (!value || pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each container level is a recursion frame: bound the depth so
      // hostile input is malformed instead of a stack overflow.
      if (depth_ == kMaxDepth) return std::nullopt;
      ++depth_;
      auto value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return JsonValue{*s};
    }
    if (literal("true")) return JsonValue{true};
    if (literal("false")) return JsonValue{false};
    if (literal("null")) return JsonValue{nullptr};
    return parse_number();
  }

  std::optional<JsonValue> parse_object() {
    if (!consume('{')) return std::nullopt;
    auto obj = std::make_shared<JsonObject>();
    skip_ws();
    if (consume('}')) return JsonValue{obj};
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key || !consume(':')) return std::nullopt;
      auto value = parse_value();
      if (!value) return std::nullopt;
      (*obj)[*key] = *value;
      if (consume(',')) continue;
      if (consume('}')) return JsonValue{obj};
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_array() {
    if (!consume('[')) return std::nullopt;
    auto arr = std::make_shared<JsonArray>();
    skip_ws();
    if (consume(']')) return JsonValue{arr};
    while (true) {
      auto value = parse_value();
      if (!value) return std::nullopt;
      arr->push_back(*value);
      if (consume(',')) continue;
      if (consume(']')) return JsonValue{arr};
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u':  // keep the raw escape; names never need code points
            if (pos_ + 4 > text_.size()) return std::nullopt;
            out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          default: return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    try {
      return JsonValue{std::stod(text_.substr(start, pos_ - start))};
    } catch (...) {
      return std::nullopt;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(const std::string& text) {
  return JsonParser(text).parse();
}

std::string json_format_double(double x) {
  // Shortest of %.15g / %.16g / %.17g that parses back to the same bits, so
  // common values print compactly while every double still round-trips.
  char buf[32];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, x);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == x || (x != x && back != back)) break;
  }
  std::string s(buf);
  // JSON has no inf/nan literals; emit them as strings the parser will at
  // least surface rather than corrupt the document.
  if (s.find("inf") != std::string::npos || s.find("nan") != std::string::npos)
    return json_quote(s);
  return s;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::newline_indent() {
  out_.push_back('\n');
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;
  Level& top = stack_.back();
  if (top.frame == Frame::kObject) {
    assert(top.key_pending && "JsonWriter: value without key inside object");
    top.key_pending = false;
    return;  // key() already placed comma/indent
  }
  if (!top.empty) out_.push_back(',');
  top.empty = false;
  newline_indent();
}

void JsonWriter::begin_object() {
  before_value();
  stack_.push_back({Frame::kObject});
  out_.push_back('{');
}

void JsonWriter::end_object() {
  assert(!stack_.empty() && stack_.back().frame == Frame::kObject);
  const bool empty = stack_.back().empty;
  stack_.pop_back();
  if (!empty) newline_indent();
  out_.push_back('}');
}

void JsonWriter::begin_array() {
  before_value();
  stack_.push_back({Frame::kArray});
  out_.push_back('[');
}

void JsonWriter::end_array() {
  assert(!stack_.empty() && stack_.back().frame == Frame::kArray);
  const bool empty = stack_.back().empty;
  stack_.pop_back();
  if (!empty) newline_indent();
  out_.push_back(']');
}

void JsonWriter::key(const std::string& name) {
  assert(!stack_.empty() && stack_.back().frame == Frame::kObject);
  Level& top = stack_.back();
  assert(!top.key_pending && "JsonWriter: two keys in a row");
  if (!top.empty) out_.push_back(',');
  top.empty = false;
  newline_indent();
  out_ += json_quote(name);
  out_ += ": ";
  top.key_pending = true;
}

void JsonWriter::value(const std::string& s) {
  before_value();
  out_ += json_quote(s);
}
void JsonWriter::value(const char* s) { value(std::string(s)); }
void JsonWriter::value(double x) {
  before_value();
  out_ += json_format_double(x);
}
void JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
}
void JsonWriter::value(std::size_t n) {
  before_value();
  out_ += std::to_string(n);
}
void JsonWriter::null() {
  before_value();
  out_ += "null";
}

std::string JsonWriter::str() && {
  assert(stack_.empty() && "JsonWriter: unclosed object/array");
  out_.push_back('\n');
  return std::move(out_);
}

}  // namespace fullweb::support
