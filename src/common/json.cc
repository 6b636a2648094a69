#include "common/json.h"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace slicetuner {
namespace json {

namespace {

// Nesting bound for the recursive-descent parser and the writer.
constexpr int kMaxDepth = 64;

}  // namespace

Result<long long> ParseInt64(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty() || errno == ERANGE) {
    return Status::InvalidArgument("bad integer '" + text + "'");
  }
  return value;
}

Result<uint64_t> ParseUint64(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty() || errno == ERANGE ||
      text[0] == '-') {
    return Status::InvalidArgument("bad unsigned integer '" + text + "'");
  }
  return static_cast<uint64_t>(value);
}

Result<double> ParseFloat64(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty() || errno == ERANGE) {
    return Status::InvalidArgument("bad number '" + text + "'");
  }
  return value;
}

namespace {

// Reads the JSON number token [first, last) the way strtod reads it.
// from_chars rounds exactly as glibc's strtod does, but it accepts
// subnormal results that strtod flags ERANGE; those (and from_chars'
// own range errors) take the strtod path, so acceptance and bits never
// differ. Returns false where strtod would set ERANGE.
bool ReadDouble(const char* first, const char* last, double* out) {
  double value = 0.0;
  const std::from_chars_result read = std::from_chars(first, last, value);
  if (read.ec == std::errc() && read.ptr == last &&
      (value == 0.0 || std::fabs(value) > DBL_MIN)) {
    *out = value;
    return true;
  }
  const std::string token(first, last);
  errno = 0;
  *out = std::strtod(token.c_str(), nullptr);
  return errno != ERANGE;
}

void AppendFloat64(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  // Shortest of %.15g / %.16g / %.17g that reads back exactly;
  // to_chars(general, p) writes exactly the bytes printf's %.*g does.
  char buf[40];
  char* end = buf;
  for (int precision = 15;; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, precision)
              .ptr;
    if (precision == 17) break;  // %.17g always reads back
    // A range error (%.15g of a value near DBL_MAX rounds past it) reads
    // back as infinity, so it never matches either.
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == value) {
      break;
    }
  }
  out->append(buf, end);
  // Keep doubles parseable as doubles: a whole value like 40 would reparse
  // as an integer and break the parse(serialize(x)) == x contract.
  if (std::find_if(buf, end, [](char c) {
        return c == '.' || c == 'e' || c == 'E';
      }) == end) {
    out->append(".0");
  }
}

void AppendInt64(std::string* out, long long value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void AppendEscaped(std::string* out, const std::string& text) {
  static const char kHex[] = "0123456789abcdef";
  out->push_back('"');
  const char* run = text.data();
  const char* const end = run + text.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(run, p);
    run = p + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(run, end);
  out->push_back('"');
}

}  // namespace

std::string FormatFloat64(double value) {
  std::string out;
  AppendFloat64(&out, value);
  return out;
}

std::string EscapeString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  AppendEscaped(&out, text);
  return out;
}

long long Value::int_value() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kDouble) {
    // Saturate instead of static_cast: out-of-range and NaN casts are UB,
    // and doubles here can come straight off the wire.
    if (std::isnan(double_)) return 0;
    constexpr double kMax = 9223372036854774784.0;  // largest ll-exact double
    if (double_ >= kMax) return 9223372036854775807LL;
    if (double_ <= -kMax) return -9223372036854775807LL - 1;
    return static_cast<long long>(double_);
  }
  return 0;
}

double Value::number_value() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ == Type::kDouble) return double_;
  return 0.0;
}

const std::string& Value::string_value() const {
  static const std::string kEmpty;
  return type_ == Type::kString ? string_ : kEmpty;
}

void Value::Set(std::string key, Value value) {
  if (type_ != Type::kObject) {
    *this = Object();
  }
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

const Value* Value::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string Value::GetString(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_ : fallback;
}

long long Value::GetInt(const std::string& key, long long fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->int_value() : fallback;
}

double Value::GetDouble(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

bool Value::GetBool(const std::string& key, bool fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      // Bitwise-style equality via ==; NaN never round-trips anyway.
      return double_ == other.double_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return items_ == other.items_;
    case Type::kObject:
      return members_ == other.members_;
  }
  return false;
}

void Value::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      AppendInt64(out, int_);
      return;
    case Type::kDouble:
      AppendFloat64(out, double_);
      return;
    case Type::kString:
      AppendEscaped(out, string_);
      return;
    case Type::kArray: {
      *out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) *out += indent > 0 ? ", " : ",";
        items_[i].DumpTo(out, indent, depth + 1);
      }
      *out += ']';
      return;
    }
    case Type::kObject: {
      if (indent == 0 || depth >= kMaxDepth) {
        *out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
          if (i > 0) *out += ',';
          AppendEscaped(out, members_[i].first);
          *out += ':';
          members_[i].second.DumpTo(out, 0, depth + 1);
        }
        *out += '}';
        return;
      }
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      const size_t pad = static_cast<size_t>((depth + 1) * indent);
      *out += "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        out->append(pad, ' ');
        AppendEscaped(out, members_[i].first);
        *out += ": ";
        members_[i].second.DumpTo(out, indent, depth + 1);
        if (i + 1 < members_.size()) *out += ',';
        *out += '\n';
      }
      out->append(static_cast<size_t>(depth * indent), ' ');
      *out += '}';
      return;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

// --- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    Value value;
    ST_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& why) const {
    return Status::InvalidArgument(
        StrFormat("json: %s at offset %zu", why.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(const char* literal) {
    const size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) {
      return Fail(StrFormat("expected '%s'", literal));
    }
    pos_ += len;
    return Status::OK();
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        ST_RETURN_NOT_OK(Expect("null"));
        *out = Value();
        return Status::OK();
      case 't':
        ST_RETURN_NOT_OK(Expect("true"));
        *out = Value(true);
        return Status::OK();
      case 'f':
        ST_RETURN_NOT_OK(Expect("false"));
        *out = Value(false);
        return Status::OK();
      case '"': {
        std::string s;
        ST_RETURN_NOT_OK(ParseString(&s));
        *out = Value(std::move(s));
        return Status::OK();
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    *out = Value::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      Value item;
      ST_RETURN_NOT_OK(ParseValue(&item, depth + 1));
      out->Append(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    *out = Value::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      ST_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      Value value;
      ST_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value += static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value += static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value += static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad \\u escape digit");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        // Copy the whole run up to the next quote, escape or control byte.
        size_t run_end = pos_ + 1;
        while (run_end < text_.size()) {
          const unsigned char next = static_cast<unsigned char>(text_[run_end]);
          if (next == '"' || next == '\\' || next < 0x20) break;
          ++run_end;
        }
        out->append(text_.data() + pos_, run_end - pos_);
        pos_ = run_end;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          ST_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with a low surrogate.
            if (text_.compare(pos_, 2, "\\u") != 0) {
              return Fail("unpaired surrogate in \\u escape");
            }
            pos_ += 2;
            uint32_t low = 0;
            ST_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("bad low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired low surrogate in \\u escape");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Fail("expected a value");
    }
    // RFC 8259: the integer part is either a single 0 or starts 1-9.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Fail("leading zeros are not allowed");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("digit expected in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // Numbers are read in place: no token copy on the common path.
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    if (integral) {
      long long as_int = 0;
      const std::from_chars_result read = std::from_chars(first, last, as_int);
      if (read.ec == std::errc() && read.ptr == last) {
        *out = Value(as_int);
        return Status::OK();
      }
      // Out of int64 range: fall through to double.
    }
    double as_double = 0.0;
    if (!ReadDouble(first, last, &as_double)) {
      return Fail("bad number '" + std::string(first, last) + "'");
    }
    *out = Value(as_double);
    return Status::OK();
  }

  const std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Value::Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

}  // namespace json
}  // namespace slicetuner
