// EXPLAIN ANALYZE rendering. The query engine collects per-operator
// execution stats (rows_out, Next() calls, cumulative time) during a run and
// converts its operator tree into this module's neutral ExplainNode tree;
// obs renders it as an annotated text plan without depending on the query
// layer — so the dependency arrow stays query -> obs.

#ifndef DRUGTREE_OBS_EXPLAIN_H_
#define DRUGTREE_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace drugtree {
namespace obs {

/// One operator's annotated node in an EXPLAIN ANALYZE tree.
struct ExplainNode {
  std::string label;           // operator description, e.g. "HashJoin [...]"
  int64_t rows_out = 0;        // rows produced to the parent
  int64_t next_calls = 0;      // Next() invocations
  int64_t bytes_scanned = 0;   // bytes a sequential scan read from storage:
                               // encoded segment bytes on the encoded path,
                               // approximate row bytes on the plain path
                               // (0 on every other operator)
  int64_t elapsed_micros = 0;  // cumulative time inside Open()+Next(),
                               // inclusive of children (Postgres-style)
  std::vector<ExplainNode> children;
};

/// Annotated plan tree:
///   Project [...] (rows=50 next=51 time=0.41ms)
///     Sort [...] (rows=50 next=51 time=0.39ms)
///       ...
std::string RenderExplainTree(const ExplainNode& root);

}  // namespace obs
}  // namespace drugtree

#endif  // DRUGTREE_OBS_EXPLAIN_H_
