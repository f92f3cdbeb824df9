#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/drugtree.h"
#include "core/workload.h"
#include "obs/resource_tracker.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "util/clock.h"
#include "util/rng.h"

namespace drugtree {
namespace query {
namespace {

using storage::Value;
using storage::ValueType;

TEST(LexerTest, BasicTokens) {
  auto lexed = Lex("SELECT a.b, c FROM t WHERE x >= 3.5 AND y = 'hi'");
  ASSERT_TRUE(lexed.ok());
  EXPECT_EQ(lexed->tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(lexed->tokens[0].text, "SELECT");
  EXPECT_EQ(lexed->tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(lexed->tokens[1].text, "a.b");
  EXPECT_EQ(lexed->tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto lexed = Lex("select From wHeRe");
  ASSERT_TRUE(lexed.ok());
  EXPECT_EQ(lexed->tokens[0].text, "SELECT");
  EXPECT_EQ(lexed->tokens[1].text, "FROM");
  EXPECT_EQ(lexed->tokens[2].text, "WHERE");
}

TEST(LexerTest, NumbersIntAndFloat) {
  auto lexed = Lex("42 3.5 1e3 7");
  ASSERT_TRUE(lexed.ok());
  EXPECT_EQ(lexed->tokens[0].kind, TokenKind::kInteger);
  EXPECT_EQ(lexed->tokens[0].int_value, 42);
  EXPECT_EQ(lexed->tokens[1].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(lexed->tokens[1].float_value, 3.5);
  EXPECT_EQ(lexed->tokens[2].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(lexed->tokens[2].float_value, 1000.0);
  EXPECT_EQ(lexed->tokens[3].int_value, 7);
}

TEST(LexerTest, StringsWithEscapedQuotes) {
  auto lexed = Lex("'it''s'");
  ASSERT_TRUE(lexed.ok());
  EXPECT_EQ(lexed->tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(lexed->tokens[0].text, "it's");
}

TEST(LexerTest, TwoCharOperators) {
  auto lexed = Lex("<= >= <> !=");
  ASSERT_TRUE(lexed.ok());
  EXPECT_EQ(lexed->tokens[0].text, "<=");
  EXPECT_EQ(lexed->tokens[1].text, ">=");
  EXPECT_EQ(lexed->tokens[2].text, "<>");
  EXPECT_EQ(lexed->tokens[3].text, "<>");  // != normalizes
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Lex("'unterminated").status().IsParseError());
  EXPECT_TRUE(Lex("a @ b").status().IsParseError());
}

TEST(LexerTest, FingerprintFactorsOutParameterLiterals) {
  auto lexed = Lex(
      "select a.x, 'k' AS k, a.y + 1 from t a where a.y >= 3.5 AND "
      "a.s = 'it''s' AND a.b = TRUE AND a.n IS NULL GROUP BY a.x, a.y + 1 "
      "ORDER BY a.x - 2 DESC limit 7");
  ASSERT_TRUE(lexed.ok()) << lexed.status();
  // Select-list and GROUP BY literals, the LIMIT count and TRUE/NULL are
  // shape; the WHERE and ORDER BY literals are parameters, in token order.
  EXPECT_EQ(lexed->fingerprint,
            "SELECT a.x , 'k' AS k , a.y + 1 FROM t a WHERE a.y >= ?0 AND "
            "a.s = ?1 AND a.b = TRUE AND a.n IS NULL GROUP BY a.x , a.y + 1 "
            "ORDER BY a.x - ?2 DESC LIMIT 7");
  EXPECT_EQ(lexed->Canonical(),
            "SELECT a.x , 'k' AS k , a.y + 1 FROM t a WHERE a.y >= 3.5 AND "
            "a.s = 'it''s' AND a.b = TRUE AND a.n IS NULL GROUP BY a.x , "
            "a.y + 1 ORDER BY a.x - 2 DESC LIMIT 7");
  ASSERT_EQ(lexed->params.size(), 3u);
  EXPECT_EQ(lexed->params[0].type(), ValueType::kDouble);
  EXPECT_EQ(lexed->params[0].AsDouble(), 3.5);
  EXPECT_EQ(lexed->params[1].type(), ValueType::kString);
  EXPECT_EQ(lexed->params[1].AsString(), "it's");
  EXPECT_EQ(lexed->params[2].type(), ValueType::kInt64);
  EXPECT_EQ(lexed->params[2].AsInt64(), 2);
  std::vector<int> ordinals;
  for (const Token& t : lexed->tokens) {
    if (t.param >= 0) ordinals.push_back(t.param);
  }
  EXPECT_EQ(ordinals, (std::vector<int>{0, 1, 2}));

  // Case and spacing do not matter; literal values do not change the
  // fingerprint, only the canonical text.
  auto respelled = Lex(
      "SELECT a.x,'k' as k,a.y+1 FROM t a WHERE a.y>=99.0 AND a.s='x' AND "
      "a.b=TRUE AND a.n is null GROUP BY a.x,a.y+1 ORDER BY a.x-5 DESC "
      "LIMIT 7;");
  ASSERT_TRUE(respelled.ok()) << respelled.status();
  EXPECT_EQ(respelled->fingerprint, lexed->fingerprint + " ;");
  EXPECT_NE(respelled->Canonical(), lexed->Canonical() + " ;");
}

TEST(LexerTest, ExplainPrefixIsReportedApart) {
  auto plain = Lex("SELECT a FROM t WHERE b < 5");
  auto plan = Lex("explain SELECT a FROM t WHERE b < 6");
  auto analyze = Lex("EXPLAIN ANALYZE SELECT a FROM t WHERE b < 7");
  ASSERT_TRUE(plain.ok() && plan.ok() && analyze.ok());
  EXPECT_EQ(plain->explain, ExplainMode::kNone);
  EXPECT_EQ(plan->explain, ExplainMode::kPlan);
  EXPECT_EQ(analyze->explain, ExplainMode::kAnalyze);
  EXPECT_EQ(plan->fingerprint, plain->fingerprint);
  EXPECT_EQ(analyze->fingerprint, plain->fingerprint);
  EXPECT_EQ(analyze->tokens[0].text, "SELECT");
  // Only one leading prefix is peeled; a second one is the parser's error.
  auto twice = Lex("EXPLAIN EXPLAIN SELECT a FROM t");
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->tokens[0].text, "EXPLAIN");
  EXPECT_TRUE(ParseTokens(twice->tokens).status().IsParseError());
  EXPECT_TRUE(ParseQuery("EXPLAIN SELECT a FROM t").status().IsParseError());
}

TEST(ParserTest, MinimalSelect) {
  auto stmt = ParseQuery("SELECT a FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.size(), 1u);
  EXPECT_EQ(stmt->tables.size(), 1u);
  EXPECT_EQ(stmt->tables[0].table, "t");
  EXPECT_EQ(stmt->tables[0].alias, "t");
  EXPECT_EQ(stmt->where, nullptr);
}

TEST(ParserTest, SelectStar) {
  auto stmt = ParseQuery("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select[0].star);
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto stmt = ParseQuery("SELECT a AS x, b y FROM t1 AS u, t2 v");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select[0].alias, "x");
  EXPECT_EQ(stmt->select[1].alias, "y");
  EXPECT_EQ(stmt->tables[0].alias, "u");
  EXPECT_EQ(stmt->tables[1].alias, "v");
}

TEST(ParserTest, JoinOnFoldsIntoWhere) {
  auto stmt = ParseQuery(
      "SELECT p.a FROM proteins p JOIN activities a ON p.acc = a.acc "
      "WHERE a.x < 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->tables.size(), 2u);
  ASSERT_NE(stmt->where, nullptr);
  // The fold produces (a.x < 5) AND (p.acc = a.acc).
  auto conjuncts = SplitConjuncts(stmt->where);
  EXPECT_EQ(conjuncts.size(), 2u);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseQuery("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
  ASSERT_TRUE(stmt.ok());
  // OR binds loosest: (x=1) OR ((y=2) AND (z=3)).
  EXPECT_EQ(stmt->where->bin_op, BinaryOp::kOr);
  EXPECT_EQ(stmt->where->children[1]->bin_op, BinaryOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = ParseQuery("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const Expr& e = *stmt->select[0].expr;
  EXPECT_EQ(e.bin_op, BinaryOp::kAdd);
  EXPECT_EQ(e.children[1]->bin_op, BinaryOp::kMul);
}

TEST(ParserTest, ParensOverridePrecedence) {
  auto stmt = ParseQuery("SELECT (a + b) * c FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select[0].expr->bin_op, BinaryOp::kMul);
}

TEST(ParserTest, NotAndUnaryMinus) {
  auto stmt = ParseQuery("SELECT a FROM t WHERE NOT x = -1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, ExprKind::kUnary);
  EXPECT_EQ(stmt->where->un_op, UnaryOp::kNot);
}

TEST(ParserTest, FunctionsAndCountStar) {
  auto stmt = ParseQuery(
      "SELECT COUNT(*), SUM(x), SUBTREE(p.node, 'n1') FROM t GROUP BY y");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select[0].expr->function, "COUNT");
  EXPECT_TRUE(stmt->select[0].expr->children.empty());
  EXPECT_EQ(stmt->select[1].expr->function, "SUM");
  EXPECT_EQ(stmt->select[2].expr->function, "SUBTREE");
  EXPECT_EQ(stmt->select[2].expr->children.size(), 2u);
  EXPECT_EQ(stmt->group_by.size(), 1u);
}

TEST(ParserTest, IsNullAndIsNotNull) {
  auto s1 = ParseQuery("SELECT a FROM t WHERE x IS NULL");
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->where->function, "IS_NULL");
  auto s2 = ParseQuery("SELECT a FROM t WHERE x IS NOT NULL");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->where->un_op, UnaryOp::kNot);
  EXPECT_EQ(s2->where->children[0]->function, "IS_NULL");
}

TEST(ParserTest, OrderByAndLimit) {
  auto stmt = ParseQuery(
      "SELECT a FROM t ORDER BY a DESC, b ASC, c LIMIT 10;");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->order_by.size(), 3u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  EXPECT_TRUE(stmt->order_by[2].ascending);
  ASSERT_TRUE(stmt->limit.has_value());
  EXPECT_EQ(*stmt->limit, 10);
}

TEST(ParserTest, Literals) {
  auto stmt = ParseQuery(
      "SELECT a FROM t WHERE b = TRUE AND c = FALSE AND d = NULL AND "
      "e = 'str'");
  ASSERT_TRUE(stmt.ok());
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(ParseQuery("").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT FROM t").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a FROM").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a FROM t WHERE").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a FROM t LIMIT x").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a FROM t extra junk w").status().IsParseError());
  EXPECT_TRUE(
      ParseQuery("SELECT a FROM t JOIN u").status().IsParseError());  // no ON
  EXPECT_TRUE(ParseQuery("SELECT f( FROM t").status().IsParseError());
}

TEST(ParserTest, CanonicalToStringStable) {
  auto s1 = ParseQuery("select  a.x  from  t  a where a.x<5 limit 3");
  ASSERT_TRUE(s1.ok());
  auto s2 = ParseQuery(s1->ToString());
  ASSERT_TRUE(s2.ok()) << s1->ToString();
  EXPECT_EQ(s1->ToString(), s2->ToString());
}

TEST(ParserTest, LiteralsCarryTheirTokenOrdinals) {
  // The ON literal precedes the WHERE literals in token order, though the
  // fold renders it after them; BETWEEN's duplicated operand keeps its
  // ordinal.
  auto stmt = ParseStatement(
      "SELECT t.a FROM t JOIN u ON t.k = u.k + 1 "
      "WHERE t.x + 3 BETWEEN 2 AND 9 AND t.s <> 'z'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  std::vector<std::pair<int, std::string>> tagged;
  std::function<void(const Expr&)> walk = [&](const Expr& e) {
    if (e.kind == ExprKind::kLiteral) {
      tagged.emplace_back(e.param_index, e.literal.ToString());
    }
    for (const auto& c : e.children) walk(*c);
  };
  walk(*stmt->select.where);
  EXPECT_EQ(tagged, (std::vector<std::pair<int, std::string>>{
                        {1, "3"}, {2, "2"}, {1, "3"}, {3, "9"}, {4, "z"},
                        {0, "1"}}));
}

TEST(ParserTest, ToStringParsesBack) {
  auto stmt = ParseQuery(
      "SELECT COUNT(*), a.x + 1, a.y AS why FROM t a "
      "WHERE a.s = 'it''s' GROUP BY a.x + 1, a.y");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->ToString(),
            "SELECT COUNT(*), (a.x + 1), a.y AS why FROM t a "
            "WHERE (a.s = 'it''s') GROUP BY (a.x + 1), a.y");
  auto again = ParseQuery(stmt->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), stmt->ToString());
}

TEST(ExprTest, SplitAndCombineConjuncts) {
  auto stmt = ParseQuery("SELECT a FROM t WHERE x = 1 AND y = 2 AND z = 3");
  ASSERT_TRUE(stmt.ok());
  auto parts = SplitConjuncts(stmt->where);
  EXPECT_EQ(parts.size(), 3u);
  auto combined = CombineConjuncts(parts);
  EXPECT_EQ(SplitConjuncts(combined).size(), 3u);
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST(ExprTest, CloneIsDeep) {
  auto stmt = ParseQuery("SELECT a FROM t WHERE x = 1");
  auto clone = stmt->where->Clone();
  clone->children[0]->column = "changed";
  EXPECT_EQ(stmt->where->children[0]->column, "x");
}

TEST(ExprTest, CollectColumnsDeduplicates) {
  auto stmt = ParseQuery("SELECT a FROM t WHERE x = 1 AND x = 2 AND y = 3");
  std::vector<std::string> cols;
  stmt->where->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"x", "y"}));
}

TEST(ExprTest, AggregateDetection) {
  auto stmt = ParseQuery("SELECT COUNT(*), a + 1 FROM t GROUP BY a");
  EXPECT_TRUE(stmt->select[0].expr->IsAggregate());
  EXPECT_TRUE(stmt->select[0].expr->ContainsAggregate());
  EXPECT_FALSE(stmt->select[1].expr->IsAggregate());
  EXPECT_FALSE(stmt->select[1].expr->ContainsAggregate());
}

// ---------------------------------------------------------------------------
// Hostile input: seeded byte mutations of the workload statements.

/// The distinct ordinals of the tagged literals below `expr`.
void CollectOrdinals(const Expr* expr, std::set<int>* ordinals) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kLiteral && expr->param_index >= 0) {
    ordinals->insert(expr->param_index);
  }
  for (const auto& c : expr->children) CollectOrdinals(c.get(), ordinals);
}

std::set<int> TaggedOrdinals(const SelectStatement& stmt) {
  std::set<int> ordinals;
  for (const auto& item : stmt.select) CollectOrdinals(item.expr.get(), &ordinals);
  CollectOrdinals(stmt.where.get(), &ordinals);
  for (const auto& g : stmt.group_by) CollectOrdinals(g.get(), &ordinals);
  for (const auto& k : stmt.order_by) CollectOrdinals(k.expr.get(), &ordinals);
  return ordinals;
}

/// One to three random edits: overwrite, insert or delete a byte,
/// duplicate a short span, or rewrite a digit (which mostly keeps the
/// statement valid and changes a literal). Bytes come mostly from the query
/// language's own alphabet, sometimes from anywhere in 0..255.
std::string Mutate(std::string sql, util::Rng* rng) {
  static const std::string kAlphabet =
      "'()*,.;<=>!+-/ 0123456789eE_aZ\"";
  auto byte = [&]() -> char {
    if (rng->Uniform(4) == 0) return static_cast<char>(rng->Uniform(256));
    return kAlphabet[rng->Uniform(kAlphabet.size())];
  };
  const int edits = static_cast<int>(rng->UniformRange(1, 3));
  for (int e = 0; e < edits; ++e) {
    const size_t at = sql.empty() ? 0 : rng->Uniform(sql.size());
    switch (rng->Uniform(5)) {
      case 0:
        if (!sql.empty()) sql[at] = byte();
        break;
      case 4: {
        const size_t digit = sql.find_first_of("0123456789", at);
        if (digit != std::string::npos) {
          sql[digit] = static_cast<char>('0' + rng->Uniform(10));
        }
        break;
      }
      case 1:
        sql.insert(sql.begin() + static_cast<std::ptrdiff_t>(at), byte());
        break;
      case 2:
        if (!sql.empty()) sql.erase(at, 1);
        break;
      default: {
        const size_t len = std::min<size_t>(rng->UniformRange(1, 8),
                                            sql.size() - at);
        sql.insert(at, sql.substr(at, len));
        break;
      }
    }
  }
  return sql;
}

// Each mutant either fails to lex or parse with a Status, or parses with
// exactly the parameters the lexer counted; running it through a planner
// with a plan cache returns a Status or rows. Mutants that keep a shape
// and change its literals hit templates installed by earlier ones.
TEST(HostileInputTest, MutatedStatementsFailCleanlyOrAgree) {
  util::SimulatedClock clock;
  core::BuildOptions options;
  options.seed = 5;
  options.num_families = 2;
  options.taxa_per_family = 8;
  options.sequence_length = 60;
  options.num_ligands = 40;
  auto built = core::DrugTree::Build(options, &clock);
  ASSERT_TRUE(built.ok()) << built.status();
  const core::DrugTree& dt = **built;

  std::vector<std::string> seeds;
  const phylo::Tree& tree = dt.tree();
  const phylo::NodeId leaf = tree.Leaves().front();
  for (phylo::NodeId node : {tree.root(), tree.node(leaf).parent, leaf}) {
    for (core::QueryKind kind :
         {core::QueryKind::kSubtreeProteins, core::QueryKind::kSubtreeOverlay,
          core::QueryKind::kScreeningJoin, core::QueryKind::kFamilyAggregate,
          core::QueryKind::kAncestorPath}) {
      seeds.push_back(
          core::MakeQuerySql(kind, node, tree, core::WorkloadParams()));
    }
    seeds.push_back(dt.OverlayQuerySql(node));
  }

  PlanCache cache;
  Planner planner((*built)->catalog(), nullptr, &cache);
  util::Rng rng(20261019);
  constexpr int kMutants = 3000;
  int parsed = 0, ran = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string sql =
        Mutate(seeds[rng.Uniform(seeds.size())], &rng);
    auto lexed = Lex(sql);
    if (!lexed.ok()) {
      EXPECT_TRUE(lexed.status().IsParseError()) << sql;
      continue;
    }
    auto stmt = ParseTokens(lexed->tokens);
    if (stmt.ok()) {
      ++parsed;
      std::set<int> expect;
      for (int p = 0; p < static_cast<int>(lexed->params.size()); ++p) {
        expect.insert(p);
      }
      EXPECT_EQ(TaggedOrdinals(*stmt), expect) << sql;
    } else {
      EXPECT_TRUE(stmt.status().IsParseError()) << sql;
    }
    // Bounded in time and memory: a mutant may join without a condition.
    obs::MemoryTracker memory("mutant", nullptr, 0, 64 << 20);
    QueryContext context;
    context.clock = util::RealClock::Instance();
    context.deadline_micros = context.clock->NowMicros() + 2'000'000;
    context.memory = &memory;
    auto run = planner.Run(sql, PlannerOptions(), &context);
    if (run.ok()) ++ran;
  }
  // The sweep must reach the planner, not only the lexer.
  EXPECT_GT(parsed, kMutants / 10);
  EXPECT_GT(ran, kMutants / 20);
  EXPECT_GT(cache.stats().hits, 0);
}

}  // namespace
}  // namespace query
}  // namespace drugtree
