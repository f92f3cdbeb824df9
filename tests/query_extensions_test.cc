// Tests for the SQL extensions: DISTINCT and BETWEEN, plus network failure
// injection with retry in the integration layer.

#include <gtest/gtest.h>

#include "integration/network.h"
#include "integration/protein_source.h"
#include "query/planner.h"
#include "util/clock.h"
#include "util/rng.h"

namespace drugtree {
namespace query {
namespace {

using storage::IndexKind;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Create({{"k", ValueType::kInt64, false},
                                  {"g", ValueType::kString, false}});
    ASSERT_TRUE(schema.ok());
    table_ = std::make_unique<Table>("t", *schema);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(table_
                      ->Insert({Value::Int64(i % 10),
                                Value::String(i % 2 ? "odd" : "even")})
                      .ok());
    }
    ASSERT_TRUE(table_->CreateIndex("k", IndexKind::kBTree).ok());
    ASSERT_TRUE(table_->Analyze().ok());
    ASSERT_TRUE(catalog_.Register(table_.get()).ok());
    planner_ = std::make_unique<Planner>(&catalog_);
  }

  QueryResult Run(const std::string& sql,
                  PlannerOptions opts = PlannerOptions::Optimized()) {
    auto outcome = planner_->Run(sql, opts);
    EXPECT_TRUE(outcome.ok()) << sql << ": " << outcome.status();
    return outcome.ok() ? outcome->result : QueryResult{};
  }

  std::unique_ptr<Table> table_;
  Catalog catalog_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(ExtensionsTest, DistinctRemovesDuplicates) {
  auto r = Run("SELECT DISTINCT t.g FROM t ORDER BY t.g");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "even");
  EXPECT_EQ(r.rows[1][0].AsString(), "odd");
}

TEST_F(ExtensionsTest, DistinctOnMultipleColumns) {
  auto r = Run("SELECT DISTINCT t.k, t.g FROM t");
  EXPECT_EQ(r.rows.size(), 10u);  // (k, parity-of-k) pairs are 1:1
}

TEST_F(ExtensionsTest, DistinctWithoutKeywordKeepsDuplicates) {
  auto r = Run("SELECT t.g FROM t");
  EXPECT_EQ(r.rows.size(), 30u);
}

TEST_F(ExtensionsTest, DistinctInteractsWithLimit) {
  auto r = Run("SELECT DISTINCT t.k FROM t ORDER BY t.k LIMIT 4");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[3][0].AsInt64(), 3);
}

TEST_F(ExtensionsTest, DistinctInCacheKey) {
  auto s1 = ParseQuery("SELECT DISTINCT t.g FROM t");
  auto s2 = ParseQuery("SELECT t.g FROM t");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(s1->ToString(), s2->ToString());
}

TEST_F(ExtensionsTest, BetweenDesugarsToRange) {
  auto r = Run("SELECT t.k FROM t WHERE t.k BETWEEN 3 AND 5 "
               "ORDER BY t.k");
  ASSERT_EQ(r.rows.size(), 9u);  // 3,4,5 x3 each
  EXPECT_EQ(r.rows.front()[0].AsInt64(), 3);
  EXPECT_EQ(r.rows.back()[0].AsInt64(), 5);
}

TEST_F(ExtensionsTest, BetweenUsesBTreeIndex) {
  auto outcome = planner_->Run(
      "EXPLAIN SELECT t.k FROM t WHERE t.k BETWEEN 3 AND 5",
      PlannerOptions::Optimized());
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome->physical_plan.find("IndexScan"), std::string::npos)
      << outcome->physical_plan;
}

TEST_F(ExtensionsTest, BetweenInsideConjunction) {
  auto r = Run(
      "SELECT t.k FROM t WHERE t.k BETWEEN 2 AND 8 AND t.g = 'even' "
      "ORDER BY t.k");
  for (const auto& row : r.rows) {
    EXPECT_GE(row[0].AsInt64(), 2);
    EXPECT_LE(row[0].AsInt64(), 8);
    EXPECT_EQ(row[0].AsInt64() % 2, 0);
  }
}

TEST_F(ExtensionsTest, NotBetween) {
  auto r = Run("SELECT DISTINCT t.k FROM t WHERE NOT t.k BETWEEN 2 AND 7 "
               "ORDER BY t.k");
  ASSERT_EQ(r.rows.size(), 4u);  // 0, 1, 8, 9
  EXPECT_EQ(r.rows[0][0].AsInt64(), 0);
  EXPECT_EQ(r.rows[3][0].AsInt64(), 9);
}

TEST_F(ExtensionsTest, BetweenSyntaxErrors) {
  EXPECT_TRUE(planner_->Run("SELECT t.k FROM t WHERE t.k BETWEEN 3", {})
                  .status()
                  .IsParseError());
  EXPECT_TRUE(planner_->Run("SELECT t.k FROM t WHERE t.k BETWEEN AND 5", {})
                  .status()
                  .IsParseError());
}

}  // namespace
}  // namespace query

namespace integration {
namespace {

TEST(FailureInjectionTest, NoFailuresByDefault) {
  util::SimulatedClock clock;
  SimulatedNetwork net(&clock, NetworkParams{});
  for (int i = 0; i < 50; ++i) net.Request(100);
  EXPECT_EQ(net.num_failures(), 0u);
}

TEST(FailureInjectionTest, FailuresChargeTimeoutAndRetry) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 1000;
  params.bandwidth_bytes_per_sec = 0;
  params.jitter_fraction = 0;
  params.failure_probability = 0.5;
  params.timeout_micros = 10'000;
  SimulatedNetwork net(&clock, params, /*seed=*/3);
  int64_t total = 0;
  for (int i = 0; i < 200; ++i) total += net.Request(0);
  // Every delivery costs 1 ms; every failure costs 10 ms; with p=0.5 there
  // is ~1 failure per delivery.
  EXPECT_GT(net.num_failures(), 50u);
  EXPECT_LT(net.num_failures(), 350u);
  int64_t expected = 200 * 1000 +
                     static_cast<int64_t>(net.num_failures()) * 10'000;
  EXPECT_EQ(total, expected);
  EXPECT_EQ(clock.NowMicros(), expected);
}

TEST(FailureInjectionTest, AlwaysFailingLinkStillTerminates) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.failure_probability = 1.0;
  params.timeout_micros = 1;
  SimulatedNetwork net(&clock, params);
  EXPECT_GE(net.Request(10), 1000);  // capped retries, no hang
}

TEST(FailureInjectionTest, SourcesSurviveFlakyLink) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 100;
  params.failure_probability = 0.3;
  params.timeout_micros = 1000;
  params.jitter_fraction = 0;
  SimulatedNetwork net(&clock, params, 11);
  util::Rng rng(4);
  ProteinSourceParams pp;
  pp.num_families = 2;
  pp.taxa_per_family = 4;
  pp.sequence_length = 40;
  auto src = ProteinSource::Create(pp, &net, &rng);
  ASSERT_TRUE(src.ok());
  // Every fetch succeeds despite the 30% failure rate (retries absorb it).
  for (const auto& acc : Await(&net, src->ListAccessions())) {
    EXPECT_TRUE(Await(&net, src->FetchByAccession(acc)).ok());
  }
  EXPECT_GT(net.num_failures(), 0u);
}

}  // namespace
}  // namespace integration
}  // namespace drugtree
