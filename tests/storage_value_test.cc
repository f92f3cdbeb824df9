#include "storage/value.h"

#include <gtest/gtest.h>

#include "storage/schema.h"
#include "util/rng.h"

namespace drugtree {
namespace storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
  EXPECT_EQ(Value::Int64(5).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
}

TEST(ValueTest, DefaultConstructedIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int64(42), Value::Double(42.0));
  EXPECT_NE(Value::Int64(42), Value::Double(42.5));
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, NullOrdersFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_GT(Value::String("").Compare(Value::Null()), 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("abc"), Value::String("abc"));
}

TEST(ValueTest, BoolOrdering) {
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
  EXPECT_EQ(Value::Bool(true), Value::Bool(true));
}

TEST(ValueTest, HashConsistentWithEquality) {
  // Int64 and integral Double that compare equal must hash equal.
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::Int64(1).Hash(), Value::Int64(2).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(ValueTest, EncodeDecodeAllTypes) {
  std::vector<Value> values = {
      Value::Null(),       Value::Bool(true),      Value::Bool(false),
      Value::Int64(0),     Value::Int64(-1234567), Value::Double(3.14159),
      Value::Double(-0.0), Value::String(""),      Value::String("hello"),
      Value::String(std::string(1000, 'x')),
  };
  std::string buf;
  for (const auto& v : values) v.EncodeTo(&buf);
  size_t offset = 0;
  for (const auto& expected : values) {
    auto v = Value::DecodeFrom(buf, &offset);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, expected);
    EXPECT_EQ(v->type(), expected.type());
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(ValueTest, DecodeTruncatedFails) {
  std::string buf;
  Value::Int64(42).EncodeTo(&buf);
  buf.resize(buf.size() - 1);
  size_t offset = 0;
  EXPECT_TRUE(Value::DecodeFrom(buf, &offset).status().IsParseError());
}

TEST(ValueTest, DecodeBadTagFails) {
  std::string buf = "\x7f";
  size_t offset = 0;
  EXPECT_TRUE(Value::DecodeFrom(buf, &offset).status().IsParseError());
}

TEST(ValueTest, DecodeStringLengthNearTwoToThe64Fails) {
  // Offset + length wraps for a length within 9 of 2^64; a wrapped check
  // accepted it and moved the offset back into bytes already read.
  std::string buf(1, static_cast<char>(ValueType::kString));
  buf.append(8, '\xff');  // length 2^64 - 1
  buf.append("abc");
  size_t offset = 0;
  EXPECT_TRUE(Value::DecodeFrom(buf, &offset).status().IsParseError());
}

TEST(ValueTest, DecodeRowRefusesACountBeyondTheBytesLeft) {
  // Each value takes at least one byte, so three NULLs fit a count of 3 ...
  std::string nulls;
  EncodeRow({Value::Null(), Value::Null(), Value::Null()}, &nulls);
  size_t offset = 0;
  auto row = DecodeRow(nulls, &offset);
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->size(), 3u);
  EXPECT_EQ(offset, nulls.size());
  // ... but a count of 1000 over two values is refused as a count, before
  // any value is decoded or reserved for.
  std::string buf;
  EncodeRow({Value::Int64(1), Value::Null()}, &buf);
  buf[0] = static_cast<char>(1000 & 0xFF);
  buf[1] = static_cast<char>(1000 >> 8);
  offset = 0;
  auto refused = DecodeRow(buf, &offset);
  ASSERT_TRUE(refused.status().IsParseError());
  EXPECT_NE(refused.status().message().find("column count"), std::string::npos)
      << refused.status();
}

class ValueRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ValueRoundTrip, RandomRowsRoundTrip) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 3 + 11);
  for (int trial = 0; trial < 50; ++trial) {
    Row row;
    int cols = 1 + static_cast<int>(rng.Uniform(8));
    for (int c = 0; c < cols; ++c) {
      switch (rng.Uniform(5)) {
        case 0: row.push_back(Value::Null()); break;
        case 1: row.push_back(Value::Bool(rng.Bernoulli(0.5))); break;
        case 2:
          row.push_back(Value::Int64(rng.UniformRange(-1000000, 1000000)));
          break;
        case 3: row.push_back(Value::Double(rng.NextGaussian() * 100)); break;
        case 4: {
          std::string s;
          size_t len = rng.Uniform(30);
          for (size_t i = 0; i < len; ++i) {
            s += char('a' + rng.Uniform(26));
          }
          row.push_back(Value::String(std::move(s)));
          break;
        }
      }
    }
    std::string buf;
    EncodeRow(row, &buf);
    size_t offset = 0;
    auto decoded = DecodeRow(buf, &offset);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, row);
    EXPECT_EQ(offset, buf.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTrip, ::testing::Range(0, 4));

TEST(SchemaTest, CreateValidations) {
  EXPECT_TRUE(Schema::Create({{"", ValueType::kInt64, false}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Schema::Create({{"a", ValueType::kNull, false}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Schema::Create({{"a", ValueType::kInt64, false},
                              {"a", ValueType::kString, false}})
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, IndexOfAndHas) {
  auto s = Schema::Create(
      {{"a", ValueType::kInt64, false}, {"b", ValueType::kString, true}});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s->IndexOf("b"), 1u);
  EXPECT_TRUE(s->IndexOf("c").status().IsNotFound());
  EXPECT_TRUE(s->Has("a"));
  EXPECT_FALSE(s->Has("z"));
}

TEST(SchemaTest, CheckRowArityAndTypes) {
  auto s = Schema::Create(
      {{"a", ValueType::kInt64, false}, {"b", ValueType::kString, true}});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->CheckRow({Value::Int64(1), Value::String("x")}).ok());
  EXPECT_TRUE(s->CheckRow({Value::Int64(1), Value::Null()}).ok());  // nullable
  EXPECT_FALSE(s->CheckRow({Value::Null(), Value::String("x")}).ok());
  EXPECT_FALSE(s->CheckRow({Value::Int64(1)}).ok());  // arity
  EXPECT_FALSE(s->CheckRow({Value::String("x"), Value::String("y")}).ok());
}

TEST(SchemaTest, IntWidensToDouble) {
  auto s = Schema::Create({{"d", ValueType::kDouble, false}});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->CheckRow({Value::Int64(5)}).ok());
  EXPECT_FALSE(s->CheckRow({Value::String("5")}).ok());
}

TEST(SchemaTest, ToStringRendersTypes) {
  auto s = Schema::Create(
      {{"a", ValueType::kInt64, false}, {"b", ValueType::kBool, true}});
  EXPECT_EQ(s->ToString(), "a:INT64, b:BOOL");
}

}  // namespace
}  // namespace storage
}  // namespace drugtree
