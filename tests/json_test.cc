// Tests for the common JSON layer: scalar lexers, writer/parser round trips
// (including a seeded fuzz-style property test over nested documents with
// escapes), pretty-printing, strict rejection of malformed input, and the
// codec pins: the writer's bytes and the parser's accept/reject decisions
// checked against plain libc references (snprintf/strtod/strtoll) kept in
// this file.

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/random.h"

namespace slicetuner {
namespace json {
namespace {

TEST(JsonScalarTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), 9223372036854775807LL);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());  // overflow
}

TEST(JsonScalarTest, ParseUint64) {
  EXPECT_EQ(*ParseUint64("18446744073709551615"), ~uint64_t{0});
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());
}

TEST(JsonScalarTest, ParseFloat64) {
  EXPECT_DOUBLE_EQ(*ParseFloat64("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*ParseFloat64("-1e-3"), -1e-3);
  EXPECT_FALSE(ParseFloat64("1.2.3").ok());
  EXPECT_FALSE(ParseFloat64("").ok());
}

TEST(JsonScalarTest, FormatFloat64RoundTripsExactly) {
  const std::vector<double> values = {0.0,   -0.0,   1.0,
                                      0.1,   1e300,  1e-300,
                                      3.14159265358979, 0.30000000000000004};
  for (const double v : values) {
    EXPECT_EQ(*ParseFloat64(FormatFloat64(v)), v) << FormatFloat64(v);
  }
}

// ---------------------------------------------------------------------------
// Codec pins: the snapshot, journal and wire bytes are whatever the writer
// emits, so the fast paths must match these libc references byte for byte,
// and the parser must accept, reject and decode exactly as strtod/strtoll.
// ---------------------------------------------------------------------------

// The float writer's contract: the shortest of %.15g / %.16g / %.17g that
// strtod reads back exactly, with ".0" appended to whole values.
std::string ReferenceFormatFloat64(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

std::string ReferenceEscape(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

// How the parser reads one JSON number token: an integral token is an int
// when strtoll takes it without ERANGE, otherwise the token is a double
// when strtod takes it without ERANGE, otherwise it is rejected.
Result<Value> ReferenceNumber(const std::string& token) {
  if (token.find_first_of(".eE") == std::string::npos) {
    errno = 0;
    const long long as_int = std::strtoll(token.c_str(), nullptr, 10);
    if (errno != ERANGE) return Value(as_int);
  }
  errno = 0;
  const double as_double = std::strtod(token.c_str(), nullptr);
  if (errno == ERANGE) return Status::InvalidArgument("out of range");
  return Value(as_double);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void ExpectSameNumber(const std::string& token) {
  const Result<Value> expected = ReferenceNumber(token);
  const Result<Value> parsed = Value::Parse(token);
  ASSERT_EQ(parsed.ok(), expected.ok()) << token;
  if (!expected.ok()) return;
  ASSERT_EQ(parsed->is_int(), expected->is_int()) << token;
  if (expected->is_int()) {
    EXPECT_EQ(parsed->int_value(), expected->int_value()) << token;
  } else {
    EXPECT_EQ(Bits(parsed->number_value()), Bits(expected->number_value()))
        << token;
  }
}

TEST(JsonCodecPinTest, FormatFloat64MatchesPrintfReference) {
  std::vector<double> values = {
      0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_TRUE_MIN,
      -DBL_TRUE_MIN, FromBits(0x000FFFFFFFFFFFFFull), DBL_EPSILON, 1.0, 40.0,
      1e15, 1e16, 1e17, 1e21, 1e22, 123456789012345678.0, 0.1, 0.3,
      0.30000000000000004, 5e-324, 1e-7, 1e-5, 1e-4, 9007199254740993.0,
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0), 2.5e-308};
  // Powers of two, whose rounding interval is narrower below, and their
  // neighbours.
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double power = std::ldexp(1.0, exponent);
    for (const double v : {power, std::nextafter(power, 0.0),
                           std::nextafter(power, DBL_MAX)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  Rng rng(20261019);
  // Random bit patterns: every exponent, subnormals and both signs.
  for (int i = 0; i < (1 << 20); ++i) values.push_back(FromBits(rng()));
  // Short decimals, where the 15-digit form wins.
  for (int i = 0; i < (1 << 16); ++i) {
    const double mantissa =
        static_cast<double>(rng.UniformInt(int64_t{-999999}, int64_t{999999}));
    const int exponent =
        static_cast<int>(rng.UniformInt(int64_t{-12}, int64_t{12}));
    values.push_back(mantissa * std::pow(10.0, exponent));
  }
  size_t checked = 0;
  for (const double v : values) {
    const std::string expected = ReferenceFormatFloat64(v);
    ASSERT_EQ(FormatFloat64(v), expected) << "bits " << Bits(v);
    ASSERT_EQ(Value(v).Dump(), expected) << "bits " << Bits(v);
    ++checked;
  }
  EXPECT_GT(checked, size_t{1} << 20);
}

TEST(JsonCodecPinTest, IntsAndStringsMatchPrintfReference) {
  Rng rng(7);
  std::vector<long long> ints = {0, 1, -1, LLONG_MAX, LLONG_MIN, 10, -10};
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng();
    ints.push_back(
        static_cast<long long>(bits >> rng.UniformInt(uint64_t{64})));
    ints.push_back(-ints.back());
  }
  for (const long long v : ints) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    ASSERT_EQ(Value(v).Dump(), buf);
  }
  // Every byte value alone, then in random mixes.
  for (int c = 0; c < 256; ++c) {
    const std::string text(1, static_cast<char>(c));
    ASSERT_EQ(EscapeString(text), ReferenceEscape(text)) << c;
    ASSERT_EQ(Value(text).Dump(), ReferenceEscape(text)) << c;
  }
  for (int i = 0; i < 20000; ++i) {
    std::string text(static_cast<size_t>(rng.UniformInt(uint64_t{24})), ' ');
    for (char& c : text) c = static_cast<char>(rng.UniformInt(uint64_t{256}));
    ASSERT_EQ(EscapeString(text), ReferenceEscape(text));
    Value object = Value::Object();
    object.Set(text, text);
    ASSERT_EQ(object.Dump(), "{" + ReferenceEscape(text) + ":" +
                                 ReferenceEscape(text) + "}");
  }
}

TEST(JsonCodecPinTest, ParseEdgeTokensKeepStrtodSemantics) {
  // Overflow and underflow (to zero or to an inexact subnormal) are ERANGE
  // for strtod, so the parser rejects them.
  for (const char* text : {"1e400", "-1e400", "4.9e-324", "1e-400",
                           "1.7976931348623159e308", "[1e400]"}) {
    EXPECT_FALSE(Value::Parse(text).ok()) << text;
  }
  const Result<Value> past_int64 = Value::Parse("9223372036854775808");
  ASSERT_TRUE(past_int64.ok());
  EXPECT_FALSE(past_int64->is_int());
  EXPECT_EQ(past_int64->number_value(), 9223372036854775808.0);
  const Result<Value> negative_zero_int = Value::Parse("-0");
  ASSERT_TRUE(negative_zero_int.ok());
  EXPECT_TRUE(negative_zero_int->is_int());
  EXPECT_EQ(negative_zero_int->int_value(), 0);
  const Result<Value> negative_zero = Value::Parse("-0.0");
  ASSERT_TRUE(negative_zero.ok());
  EXPECT_FALSE(negative_zero->is_int());
  EXPECT_EQ(Bits(negative_zero->number_value()), Bits(-0.0));
  const Result<Value> zero_exp = Value::Parse("0e0");
  ASSERT_TRUE(zero_exp.ok());
  EXPECT_FALSE(zero_exp->is_int());
  EXPECT_EQ(Bits(zero_exp->number_value()), Bits(0.0));
  const Result<Value> upper_exp = Value::Parse("1E+2");
  ASSERT_TRUE(upper_exp.ok());
  EXPECT_FALSE(upper_exp->is_int());
  EXPECT_EQ(upper_exp->number_value(), 100.0);

  for (const char* token :
       {"1e400", "-1e400", "4.9e-324", "1e-400", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809", "-0", "-0.0", "0e0",
        "1E+2", "0e-400", "0.0e999", "2.2250738585072011e-308",
        "2.2250738585072012e-308", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "123456789012345678901234567890",
        "0.000000000000000000000000000000000000001"}) {
    SCOPED_TRACE(token);
    ExpectSameNumber(token);
  }
}

TEST(JsonCodecPinTest, ParseRandomNumberTokensLikeStrtod) {
  Rng rng(424242);
  const auto digits = [&rng](size_t n, bool leading_nonzero) {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t d = (i == 0 && leading_nonzero)
                             ? 1 + rng.UniformInt(uint64_t{9})
                             : rng.UniformInt(uint64_t{10});
      out.push_back(static_cast<char>('0' + d));
    }
    return out;
  };
  for (int i = 0; i < 200000; ++i) {
    std::string token = rng.Bernoulli(0.5) ? "-" : "";
    token += rng.Bernoulli(0.1)
                 ? "0"
                 : digits(1 + rng.UniformInt(uint64_t{24}), true);
    if (rng.Bernoulli(0.6)) {
      token += "." + digits(1 + rng.UniformInt(uint64_t{24}), false);
    }
    if (rng.Bernoulli(0.6)) {
      token += rng.Bernoulli(0.5) ? "e" : "E";
      const uint64_t sign = rng.UniformInt(uint64_t{3});
      if (sign == 1) token += "+";
      if (sign == 2) token += "-";
      // Mostly near the overflow and underflow edges.
      token += std::to_string(rng.Bernoulli(0.5)
                                  ? rng.UniformInt(int64_t{280}, int64_t{345})
                                  : rng.UniformInt(int64_t{0}, int64_t{400}));
    }
    ExpectSameNumber(token);
    if (HasFatalFailure()) return;
  }
}

TEST(JsonValueTest, ScalarRoundTrips) {
  for (const char* text :
       {"null", "true", "false", "0", "-7", "123456789", "0.5", "-1.25",
        "\"\"", "\"hello\"", "\"line\\nbreak\"", "\"quote\\\"inside\""}) {
    const Result<Value> parsed = Value::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    EXPECT_EQ(parsed->Dump(), text);
  }
}

TEST(JsonValueTest, IntAndDoubleStayDistinct) {
  const Result<Value> as_int = Value::Parse("5");
  const Result<Value> as_double = Value::Parse("5.0");
  ASSERT_TRUE(as_int.ok());
  ASSERT_TRUE(as_double.ok());
  EXPECT_TRUE(as_int->is_int());
  EXPECT_FALSE(as_double->is_int());
  EXPECT_TRUE(as_double->is_number());
  EXPECT_FALSE(*as_int == *as_double);
  // A whole-valued double keeps a decimal point so it reparses as a double.
  EXPECT_EQ(as_double->Dump(), "5.0");
}

TEST(JsonValueTest, HugeIntegerFallsBackToDouble) {
  const Result<Value> parsed = Value::Parse("123456789012345678901234567890");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->is_int());
  EXPECT_TRUE(parsed->is_number());
}

TEST(JsonValueTest, IntValueSaturatesOutOfRangeDoubles) {
  // Wire input can carry any double; the cast must saturate, not overflow
  // (static_cast of an out-of-range double is UB).
  EXPECT_EQ(Value(1e300).int_value(), 9223372036854775807LL);
  EXPECT_EQ(Value(-1e300).int_value(), -9223372036854775807LL - 1);
  EXPECT_EQ(Value(2.5).int_value(), 2);
  const Result<Value> huge =
      Value::Parse("{\"rows\":1e300,\"neg\":-1e300}");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->GetInt("rows"), 9223372036854775807LL);
  EXPECT_EQ(huge->GetInt("neg"), -9223372036854775807LL - 1);
}

TEST(JsonValueTest, ObjectKeepsInsertionOrderAndOverwrites) {
  Value object = Value::Object();
  object.Set("z", 1);
  object.Set("a", 2);
  object.Set("z", 3);
  EXPECT_EQ(object.Dump(), "{\"z\":3,\"a\":2}");
  EXPECT_EQ(object.GetInt("z"), 3);
  EXPECT_EQ(object.Find("missing"), nullptr);
}

TEST(JsonValueTest, ParsedDuplicateKeyKeepsFirstPositionLastValue) {
  const Result<Value> parsed =
      Value::Parse(R"({"k":1,"x":{"n":1,"n":[2]},"k":"last"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), R"({"k":"last","x":{"n":[2]}})");
  ASSERT_EQ(parsed->members().size(), 2u);
  EXPECT_EQ(parsed->members()[0].first, "k");

  // Set takes its key by value: a caller's lvalue key is left intact.
  Value object = Value::Object();
  const std::string key = "k";
  object.Set(key, 1);
  object.Set(key, 2);
  EXPECT_EQ(key, "k");
  EXPECT_EQ(object.Dump(), R"({"k":2})");
}

TEST(JsonValueTest, ParseReadsOnlyTheGivenView) {
  // The bytes around the view are valid number digits: a parser that read
  // past the view's end would turn 123 into 1234.
  const std::string buffer = "9[123]4";
  const Result<Value> parsed =
      Value::Parse(std::string_view(buffer).substr(1, 5));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), "[123]");
  const Result<Value> number =
      Value::Parse(std::string_view(buffer).substr(2, 3));
  ASSERT_TRUE(number.ok()) << number.status();
  EXPECT_EQ(number->int_value(), 123);
  const Result<Value> fraction = Value::Parse(std::string_view("1.5e3", 3));
  ASSERT_TRUE(fraction.ok()) << fraction.status();
  EXPECT_EQ(fraction->number_value(), 1.5);
}

TEST(JsonValueTest, EscapeHandling) {
  const std::string text = "tab\there \"quoted\" back\\slash\nnewline";
  Value value(text);
  const Result<Value> reparsed = Value::Parse(value.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->string_value(), text);
}

TEST(JsonValueTest, UnicodeEscapes) {
  const Result<Value> bmp = Value::Parse("\"\\u00e9\\u20ac\"");
  ASSERT_TRUE(bmp.ok());
  EXPECT_EQ(bmp->string_value(), "\xc3\xa9\xe2\x82\xac");  // e-acute, euro
  const Result<Value> astral = Value::Parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(astral.ok());
  EXPECT_EQ(astral->string_value(), "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_FALSE(Value::Parse("\"\\ud83d\"").ok());  // unpaired surrogate
  EXPECT_FALSE(Value::Parse("\"\\ude00\"").ok());  // lone low surrogate
}

TEST(JsonValueTest, RejectsMalformedInput) {
  for (const char* text :
       {"", "{", "}", "[1,", "{\"a\":}", "{\"a\" 1}", "{a:1}", "01x",
        "\"unterminated", "truex", "[1 2]", "{\"a\":1}extra", "nul",
        "1.2.3", "- 1", "\"bad\\escape\"", "[1,]2",
        // RFC 8259 forbids leading zeros.
        "007", "-00.5", "01", "[0123]"}) {
    EXPECT_FALSE(Value::Parse(text).ok()) << text;
  }
  // ...but a lone zero integer part stays valid in every position.
  for (const char* text : {"0", "-0", "0.5", "-0.5", "0e3"}) {
    EXPECT_TRUE(Value::Parse(text).ok()) << text;
  }
}

TEST(JsonValueTest, DepthLimitStopsHostileNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Value::Parse(deep).ok());
}

TEST(JsonValueTest, PrettyPrintMatchesBenchLayout) {
  Value summary = Value::Object();
  summary.Set("bench", "demo");
  summary.Set("speedup", 2.5);
  summary.Set("ok", true);
  Value sizes = Value::Array();
  sizes.Append(1);
  sizes.Append(2);
  summary.Set("sizes", sizes);
  EXPECT_EQ(summary.Dump(2),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"speedup\": 2.5,\n"
            "  \"ok\": true,\n"
            "  \"sizes\": [1, 2]\n"
            "}");
  // Pretty output parses back to the same document.
  const Result<Value> reparsed = Value::Parse(summary.Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(*reparsed == summary);
}

// ---------------------------------------------------------------------------
// Property test: parse(serialize(x)) == x over random nested documents.
// ---------------------------------------------------------------------------

std::string RandomString(Rng* rng) {
  static const char kAlphabet[] =
      "ab\"\\/\b\f\n\r\txyz {}[]:,0e";
  const size_t len = static_cast<size_t>(rng->UniformInt(uint64_t{12}));
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    const size_t pick = static_cast<size_t>(
        rng->UniformInt(uint64_t{sizeof(kAlphabet)}));  // incl. one past end
    if (pick >= sizeof(kAlphabet) - 1) {
      out += "\xc3\xa9";  // a multi-byte UTF-8 character (e-acute)
    } else {
      out += kAlphabet[pick];
    }
  }
  // Occasionally prepend a raw control character (must be \u-escaped).
  if (rng->Bernoulli(0.2)) out.insert(out.begin(), '\x01');
  return out;
}

Value RandomValue(Rng* rng, int depth) {
  const uint64_t kind =
      rng->UniformInt(depth >= 4 ? uint64_t{5} : uint64_t{7});
  switch (kind) {
    case 0:
      return Value();
    case 1:
      return Value(rng->Bernoulli(0.5));
    case 2:
      return Value(static_cast<long long>(
          rng->UniformInt(int64_t{-1000000}, int64_t{1000000})));
    case 3: {
      // Mix of tame and extreme magnitudes.
      const double mantissa = rng->Uniform(-2.0, 2.0);
      const int exponent =
          static_cast<int>(rng->UniformInt(int64_t{-30}, int64_t{30}));
      return Value(mantissa * std::pow(10.0, exponent));
    }
    case 4:
      return Value(RandomString(rng));
    case 5: {
      Value array = Value::Array();
      const uint64_t n = rng->UniformInt(uint64_t{4});
      for (uint64_t i = 0; i < n; ++i) {
        array.Append(RandomValue(rng, depth + 1));
      }
      return array;
    }
    default: {
      Value object = Value::Object();
      const uint64_t n = rng->UniformInt(uint64_t{4});
      for (uint64_t i = 0; i < n; ++i) {
        object.Set(RandomString(rng) + std::to_string(i),
                   RandomValue(rng, depth + 1));
      }
      return object;
    }
  }
}

TEST(JsonPropertyTest, ParseSerializeRoundTripsRandomDocuments) {
  Rng rng(20260727);
  for (int trial = 0; trial < 500; ++trial) {
    const Value value = RandomValue(&rng, 0);
    for (const int indent : {0, 2}) {
      const std::string dumped = value.Dump(indent);
      const Result<Value> reparsed = Value::Parse(dumped);
      ASSERT_TRUE(reparsed.ok())
          << "trial " << trial << ": " << reparsed.status() << "\n"
          << dumped;
      ASSERT_TRUE(*reparsed == value)
          << "trial " << trial << " diverged:\n"
          << dumped << "\nvs\n"
          << reparsed->Dump(indent);
      // Serialization is a fixed point: dump(parse(dump(x))) == dump(x).
      EXPECT_EQ(reparsed->Dump(indent), dumped);
    }
  }
}

}  // namespace
}  // namespace json
}  // namespace slicetuner
