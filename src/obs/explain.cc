#include "obs/explain.h"

#include "util/string_util.h"

namespace drugtree {
namespace obs {

namespace {

void RenderNode(const ExplainNode& node, int depth, std::string* out) {
  *out += std::string(static_cast<size_t>(depth) * 2, ' ');
  *out += node.label;
  // bytes= only appears on operators that actually touched storage.
  std::string bytes =
      node.bytes_scanned > 0
          ? util::StringPrintf(" bytes=%lld",
                               static_cast<long long>(node.bytes_scanned))
          : std::string();
  *out += util::StringPrintf(
      " (rows=%lld next=%lld%s time=%.3fms)\n",
      static_cast<long long>(node.rows_out),
      static_cast<long long>(node.next_calls), bytes.c_str(),
      static_cast<double>(node.elapsed_micros) / 1000.0);
  for (const auto& child : node.children) RenderNode(child, depth + 1, out);
}

}  // namespace

std::string RenderExplainTree(const ExplainNode& root) {
  std::string out;
  RenderNode(root, 0, &out);
  return out;
}

}  // namespace obs
}  // namespace drugtree
