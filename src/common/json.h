// Minimal JSON document model with a deterministic writer and a strict
// parser. This is the wire format of the serving subsystem (line-delimited
// request/response/progress frames, src/serve/protocol.h), the BENCH_*.json
// summaries the benchmark gate diffs, and the JSON view of simulation traces
// (sim/trace.h). No exceptions, no external dependencies: errors surface as
// Status, numbers round-trip exactly (integers as integers, doubles through
// shortest-representation formatting), and object keys keep insertion order
// so equal documents serialize to byte-identical strings.

#ifndef SLICETUNER_COMMON_JSON_H_
#define SLICETUNER_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace slicetuner {
namespace json {

/// Strict whole-string scalar parsers (no leading/trailing junk, overflow is
/// an error). These are the number lexers of the JSON parser, exported
/// because the sim trace format (sim/trace.cc) lexes its scalar fields the
/// same way.
Result<long long> ParseInt64(const std::string& text);
Result<uint64_t> ParseUint64(const std::string& text);
Result<double> ParseFloat64(const std::string& text);

/// Shortest decimal form of `value` that strtod parses back bit-identically
/// (integers without exponent where possible). Non-finite values have no
/// JSON representation and format as "null".
std::string FormatFloat64(double value);

/// A JSON document node. Copyable; object members keep insertion order.
class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(int v) : type_(Type::kInt), int_(v) {}     // NOLINT
  Value(long long v) : type_(Type::kInt), int_(v) {}  // NOLINT
  Value(size_t v)  // NOLINT
      : type_(Type::kInt), int_(static_cast<long long>(v)) {}
  Value(double v) : type_(Type::kDouble), double_(v) {}  // NOLINT
  Value(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Value(std::string s)  // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}

  static Value Array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return is_bool() && bool_; }
  /// kInt as long long; kDouble truncated toward zero; 0 otherwise.
  long long int_value() const;
  /// kInt or kDouble as double; 0.0 otherwise.
  double number_value() const;
  /// kString content; empty otherwise.
  const std::string& string_value() const;

  // --- arrays ---
  size_t size() const { return items_.size(); }
  const Value& at(size_t i) const { return items_[i]; }
  void Append(Value item) { items_.push_back(std::move(item)); }
  const std::vector<Value>& items() const { return items_; }

  // --- objects ---
  /// Adds or overwrites `key` (overwrite keeps the original position).
  void Set(std::string key, Value value);
  /// Member lookup; nullptr when absent (or not an object).
  const Value* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  // Typed member accessors with defaults, for protocol decoding.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  long long GetInt(const std::string& key, long long fallback = 0) const;
  double GetDouble(const std::string& key, double fallback = 0.0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Deep structural equality. An int and a double never compare equal
  /// (5 != 5.0), matching the round-trip guarantee of Dump/Parse.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Serializes the document. indent = 0 emits one compact line (the wire
  /// framing of the serve protocol); indent > 0 pretty-prints objects one
  /// member per line at `indent` spaces per level, with arrays kept inline
  /// (the BENCH_*.json layout).
  std::string Dump(int indent = 0) const;

  /// Parses one JSON document. The whole input must be consumed (trailing
  /// whitespace allowed). Depth is bounded to keep hostile input from
  /// overflowing the stack.
  static Result<Value> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Quotes and escapes `text` as a JSON string literal (including the
/// surrounding double quotes).
std::string EscapeString(const std::string& text);

}  // namespace json
}  // namespace slicetuner

#endif  // SLICETUNER_COMMON_JSON_H_
