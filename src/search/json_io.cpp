#include "search/json_io.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace latte::search {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::AsNumber(std::string_view what) const {
  if (kind != Kind::kNumber) {
    throw std::invalid_argument("json: " + std::string(what) +
                                " must be a number");
  }
  return number;
}

std::size_t JsonValue::AsSize(std::string_view what) const {
  const double v = AsNumber(what);
  if (v < 0) {
    throw std::invalid_argument("json: " + std::string(what) +
                                " must be non-negative");
  }
  // Above 2^53 a double no longer holds every integer, and far enough
  // above it the cast to size_t is undefined; a fraction would truncate.
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!(v <= kMaxExact) || std::floor(v) != v) {
    throw std::invalid_argument("json: " + std::string(what) +
                                " must be an integer no larger than 2^53");
  }
  return static_cast<std::size_t>(v);
}

bool JsonValue::AsBool(std::string_view what) const {
  if (kind != Kind::kBool) {
    throw std::invalid_argument("json: " + std::string(what) +
                                " must be a boolean");
  }
  return boolean;
}

const std::string& JsonValue::AsString(std::string_view what) const {
  if (kind != Kind::kString) {
    throw std::invalid_argument("json: " + std::string(what) +
                                " must be a string");
  }
  return string;
}

const JsonValue& JsonValue::Get(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    throw std::invalid_argument("json: missing key \"" + std::string(key) +
                                "\"");
  }
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (at_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw std::invalid_argument("json: " + why + " at offset " +
                                std::to_string(at_));
  }

  void SkipWhitespace() {
    while (at_ < text_.size()) {
      const char c = text_[at_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++at_;
    }
  }

  char Peek() {
    if (at_ >= text_.size()) Fail("unexpected end of input");
    return text_[at_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++at_;
  }

  bool Consume(std::string_view word) {
    if (text_.substr(at_, word.size()) != word) return false;
    at_ += word.size();
    return true;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        JsonValue v = Peek() == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = ParseString();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (Consume("true")) {
          v.boolean = true;
        } else if (Consume("false")) {
          v.boolean = false;
        } else {
          Fail("malformed literal");
        }
        return v;
      }
      case 'n': {
        if (!Consume("null")) Fail("malformed literal");
        return JsonValue{};
      }
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++at_;
      return v;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      v.object.emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++at_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++at_;
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++at_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (at_ >= text_.size()) Fail("unterminated string");
      const char c = text_[at_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[at_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (at_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("malformed \\u escape");
            }
          }
          // The writer only emits \u00xx control escapes; reject the rest
          // rather than silently mangling multi-byte text.
          if (code > 0xff) Fail("unsupported \\u escape beyond U+00FF");
          out += static_cast<char>(code);
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = at_;
    if (Peek() == '-') ++at_;
    while (at_ < text_.size()) {
      const char c = text_[at_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++at_;
      } else {
        break;
      }
    }
    if (at_ == start) Fail("expected a value");
    const std::string token(text_.substr(start, at_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      at_ = start;
      Fail("malformed number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string_view text_;
  std::size_t at_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around at_
};

}  // namespace

JsonValue ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace latte::search
