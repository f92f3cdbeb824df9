// Statement normalization for an already parsed statement. The lexer is
// where literals are factored out (query/lexer.h): Planner::Run keys its
// caches on the lexed statement and never calls this. NormalizeStatement
// remains only for callers that hold a parsed statement and want its
// fingerprint and literal ordinals, such as perfbench's per-layer ledger.

#ifndef DRUGTREE_QUERY_NORMALIZE_H_
#define DRUGTREE_QUERY_NORMALIZE_H_

#include <string>
#include <vector>

#include "query/parser.h"
#include "storage/value.h"

namespace drugtree {
namespace query {

/// The normalized view of one SELECT statement.
struct NormalizedStatement {
  /// The statement's rendering with literal values in place
  /// (SelectStatement::ToString()). Empty when the caller asked to skip it.
  std::string canonical;
  /// The lexer's fingerprint of that rendering: every parameter literal
  /// replaced by its placeholder ("?0", "?1", ...).
  std::string fingerprint;
  /// The statement's parameter literal values, by ordinal.
  std::vector<storage::Value> params;
};

/// Normalizes `stmt` in place: lexes its rendering and tags every literal
/// expression node with the ordinal of its token there (Expr::param_index;
/// -1 for shape literals), so ordinals follow the ToString order (select
/// items, WHERE, GROUP BY, ORDER BY). Returns the rendering, its
/// fingerprint and the tagged literals' values. Tags survive Clone(), so
/// they flow from the statement through logical planning into the
/// optimized plan; optimizer-synthesized literals stay untagged.
///
/// `want_canonical` = false skips keeping the rendering.
NormalizedStatement NormalizeStatement(SelectStatement* stmt,
                                       bool want_canonical = true);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_NORMALIZE_H_
