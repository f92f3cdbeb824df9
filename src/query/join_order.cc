#include "query/join_order.h"

#include <algorithm>
#include <limits>
#include <map>

namespace drugtree {
namespace query {

namespace {

// Estimated rows after joining a set of relations: product of base rows
// times the selectivity of every edge internal to the set.
double SetRows(uint32_t mask, const std::vector<JoinRelation>& relations,
               const std::vector<JoinEdge>& edges) {
  double rows = 1.0;
  for (size_t i = 0; i < relations.size(); ++i) {
    if (mask & (1u << i)) rows *= relations[i].estimated_rows;
  }
  for (const auto& e : edges) {
    if ((mask & (1u << e.left_rel)) && (mask & (1u << e.right_rel))) {
      rows *= e.selectivity;
    }
  }
  return std::max(1.0, rows);
}

// Conditions whose both sides land in `left_mask` vs the new relation.
std::vector<ExprPtr> EdgesBetween(uint32_t left_mask, size_t new_rel,
                                  const std::vector<JoinEdge>& edges) {
  std::vector<ExprPtr> out;
  for (const auto& e : edges) {
    bool connects = (e.left_rel == new_rel && (left_mask & (1u << e.right_rel))) ||
                    (e.right_rel == new_rel && (left_mask & (1u << e.left_rel)));
    if (connects) out.push_back(e.condition);
  }
  return out;
}

// Per relation, the mask of relations an edge connects it to: relation i
// joins a set `mask` without a cross product iff neighbors[i] & mask.
std::vector<uint32_t> Neighbors(size_t n, const std::vector<JoinEdge>& edges) {
  std::vector<uint32_t> neighbors(n, 0);
  for (const auto& e : edges) {
    neighbors[e.left_rel] |= 1u << e.right_rel;
    neighbors[e.right_rel] |= 1u << e.left_rel;
  }
  return neighbors;
}

JoinOrderResult FixedOrder(const std::vector<JoinRelation>& relations,
                           const std::vector<JoinEdge>& edges) {
  JoinOrderResult result;
  uint32_t mask = 0;
  double cost = 0.0;
  for (size_t i = 0; i < relations.size(); ++i) {
    result.order.push_back(i);
    if (i > 0) {
      result.conditions.push_back(EdgesBetween(mask, i, edges));
      cost += SetRows(mask | (1u << i), relations, edges);
    }
    mask |= 1u << i;
  }
  result.estimated_cost = cost;
  return result;
}

JoinOrderResult GreedyOrder(const std::vector<JoinRelation>& relations,
                            const std::vector<JoinEdge>& edges) {
  JoinOrderResult result;
  const size_t n = relations.size();
  std::vector<bool> used(n, false);
  // Start from the smallest relation.
  size_t start = 0;
  for (size_t i = 1; i < n; ++i) {
    if (relations[i].estimated_rows < relations[start].estimated_rows) {
      start = i;
    }
  }
  result.order.push_back(start);
  used[start] = true;
  uint32_t mask = 1u << start;
  double cost = 0.0;
  const std::vector<uint32_t> neighbors = Neighbors(n, edges);
  for (size_t step = 1; step < n; ++step) {
    double best_rows = std::numeric_limits<double>::infinity();
    size_t best = 0;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected = (neighbors[i] & mask) != 0;
      double rows = SetRows(mask | (1u << i), relations, edges);
      // Prefer connected relations (avoid cross products) then size.
      if ((connected && !best_connected) ||
          (connected == best_connected && rows < best_rows)) {
        best = i;
        best_rows = rows;
        best_connected = connected;
      }
    }
    result.order.push_back(best);
    result.conditions.push_back(EdgesBetween(mask, best, edges));
    cost += best_rows;
    used[best] = true;
    mask |= 1u << best;
  }
  result.estimated_cost = cost;
  return result;
}

JoinOrderResult DpOrder(const std::vector<JoinRelation>& relations,
                        const std::vector<JoinEdge>& edges) {
  const size_t n = relations.size();
  const uint32_t full = (1u << n) - 1;
  struct State {
    double cost = std::numeric_limits<double>::infinity();
    size_t last = 0;       // relation joined last
    uint32_t prev = 0;     // mask before joining `last`
  };
  std::vector<State> dp(full + 1);
  for (size_t i = 0; i < n; ++i) {
    dp[1u << i].cost = 0.0;  // base scans are costed elsewhere
    dp[1u << i].last = i;
    dp[1u << i].prev = 0;
  }
  const std::vector<uint32_t> neighbors = Neighbors(n, edges);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (dp[mask].cost == std::numeric_limits<double>::infinity()) continue;
    if (mask == full) break;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) continue;
      uint32_t next = mask | (1u << i);
      double out_rows = SetRows(next, relations, edges);
      // Connected steps pay the per-row probe coefficient; cross products
      // pay the penalty so connected orders win ties decisively.
      bool connected = (neighbors[i] & mask) != 0;
      double step_cost =
          out_rows * (connected ? CostModel::kHashProbeRowCost
                                : CostModel::kCrossProductPenalty);
      double total = dp[mask].cost + step_cost;
      if (total < dp[next].cost) {
        dp[next].cost = total;
        dp[next].last = i;
        dp[next].prev = mask;
      }
    }
  }
  // Reconstruct.
  JoinOrderResult result;
  std::vector<size_t> rev;
  uint32_t cur = full;
  while (cur != 0) {
    rev.push_back(dp[cur].last);
    cur = dp[cur].prev;
  }
  std::reverse(rev.begin(), rev.end());
  result.order = rev;
  uint32_t mask = 1u << rev[0];
  for (size_t step = 1; step < rev.size(); ++step) {
    result.conditions.push_back(EdgesBetween(mask, rev[step], edges));
    mask |= 1u << rev[step];
  }
  result.estimated_cost = dp[full].cost;
  return result;
}

}  // namespace

util::Result<JoinOrderResult> ChooseJoinOrder(
    const std::vector<JoinRelation>& relations,
    const std::vector<JoinEdge>& edges, bool enable_reordering) {
  if (relations.empty()) {
    return util::Status::InvalidArgument("no relations to order");
  }
  if (relations.size() > 31) {
    return util::Status::InvalidArgument("too many relations (max 31)");
  }
  for (const auto& e : edges) {
    if (e.left_rel >= relations.size() || e.right_rel >= relations.size()) {
      return util::Status::InvalidArgument("join edge index out of range");
    }
  }
  JoinOrderResult result;
  if (!enable_reordering || relations.size() == 1) {
    result = FixedOrder(relations, edges);
  } else if (relations.size() <= kDpTableLimit) {
    result = DpOrder(relations, edges);
  } else {
    result = GreedyOrder(relations, edges);
  }
  uint32_t mask = 0;
  for (size_t rel : result.order) {
    mask |= 1u << rel;
    result.rows.push_back(SetRows(mask, relations, edges));
  }
  return result;
}

}  // namespace query
}  // namespace drugtree
