// The strict spec grammar every textual configuration shares: whole-string
// numbers range-checked against their destination type, finite doubles,
// and name[:key=value,...] clauses that reject empty fields, duplicate keys
// and keys the grammar never consumed.
#include "common/spec_parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "common/require.hpp"

namespace lgg::common {
namespace {

template <typename T>
std::function<void(std::string_view)> as_number() {
  return [](std::string_view text) { (void)parse_number<T>("value", text); };
}

/// Reads key `a` (optional) and finishes: any other key is unconsumed.
void clause_reading_a(std::string_view text) {
  SpecClause clause(text, "test clause");
  (void)clause.take_number<std::int64_t>("a");
  clause.finish();
}

TEST(SpecParse, AcceptRejectTable) {
  const struct {
    const char* input;
    bool accepted;
    std::function<void(std::string_view)> parse;
  } kCases[] = {
      {"", false, as_number<std::int64_t>()},             // empty input
      {" 1", false, as_number<std::int64_t>()},           // whitespace
      {"1 ", false, as_number<std::int64_t>()},
      {"+1", false, as_number<std::int64_t>()},           // explicit '+'
      {"+0.5", false, as_number<double>()},
      {"12x", false, as_number<std::int64_t>()},          // trailing garbage
      {"0x10", false, as_number<std::int64_t>()},
      {"2.0", false, as_number<std::int64_t>()},          // integers are plain
      {"1e0", false, as_number<std::int64_t>()},
      {"-42", true, as_number<std::int64_t>()},
      {"9223372036854775807", true, as_number<std::int64_t>()},
      {"9223372036854775808", false, as_number<std::int64_t>()},  // overflow
      {"-9223372036854775809", false, as_number<std::int64_t>()},
      {"18446744073709551615", true, as_number<std::uint64_t>()},  // seed
      {"18446744073709551616", false, as_number<std::uint64_t>()},
      {"-1", false, as_number<std::uint64_t>()},
      {"2147483647", true, as_number<std::int32_t>()},    // destination range
      {"2147483648", false, as_number<std::int32_t>()},
      {"4294967297", false, as_number<std::int32_t>()},
      {"4294967296", false, as_number<std::uint32_t>()},
      {"0.25", true, as_number<double>()},
      {"1e-3", true, as_number<double>()},
      {"-1.5e+06", true, as_number<double>()},
      {"nan", false, as_number<double>()},                // non-finite
      {"inf", false, as_number<double>()},
      {"-inf", false, as_number<double>()},
      {"1e999", false, as_number<double>()},
      {"name", true, clause_reading_a},
      {"name:a=1", true, clause_reading_a},
      {"name:a=1,b=2", false, clause_reading_a},          // unconsumed key
      {"name:", false, clause_reading_a},                 // empty field
      {"name:a=1,", false, clause_reading_a},             // trailing comma
      {"name:a=1,,", false, clause_reading_a},
      {"name:a=1,a=2", false, clause_reading_a},          // duplicate key
      {"name:a", false, clause_reading_a},                // not key=value
      {"name:=1", false, clause_reading_a},
      {"name:a=", false, clause_reading_a},
      {"name:a= 1", false, clause_reading_a},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(std::string("input: \"") + c.input + "\"");
    if (c.accepted) {
      EXPECT_NO_THROW(c.parse(c.input));
    } else {
      EXPECT_THROW(c.parse(c.input), ContractViolation);
    }
  }
}

TEST(SpecParse, ParsedValuesAreExact) {
  EXPECT_EQ(parse_number<std::uint64_t>("seed", "18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(parse_number<std::int64_t>("n", "-9223372036854775808"),
            INT64_MIN);
  EXPECT_EQ(parse_number<double>("p", "0.1"), 0.1);

  SpecClause clause("kind:x=7,word=hi", "test clause");
  EXPECT_EQ(clause.name(), "kind");
  EXPECT_EQ(clause.number<int>("x"), 7);
  EXPECT_EQ(clause.take("word"), "hi");
  EXPECT_FALSE(clause.take("absent").has_value());
  EXPECT_THROW((void)clause.number<int>("absent"), ContractViolation);
  EXPECT_NO_THROW(clause.finish());
}

TEST(SpecParse, SplitSkipsEmptyClauses) {
  const auto clauses = split_spec(";a:x=1;;b;");
  ASSERT_EQ(clauses.size(), 2u);
  EXPECT_EQ(clauses[0], "a:x=1");
  EXPECT_EQ(clauses[1], "b");
  EXPECT_TRUE(split_spec("").empty());
}

}  // namespace
}  // namespace lgg::common
