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

void NodeToJson(const ExplainNode& node, std::string* out) {
  std::string label;
  for (char c : node.label) {
    if (c == '"' || c == '\\') label += '\\';
    label += c;
  }
  *out += util::StringPrintf(
      "{\"label\":\"%s\",\"rows_out\":%lld,\"next_calls\":%lld,"
      "\"bytes_scanned\":%lld,\"elapsed_micros\":%lld",
      label.c_str(), static_cast<long long>(node.rows_out),
      static_cast<long long>(node.next_calls),
      static_cast<long long>(node.bytes_scanned),
      static_cast<long long>(node.elapsed_micros));
  if (!node.children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) *out += ",";
      NodeToJson(node.children[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string RenderExplainTree(const ExplainNode& root) {
  std::string out;
  RenderNode(root, 0, &out);
  return out;
}

std::string ExplainTreeToJson(const ExplainNode& root) {
  std::string out;
  NodeToJson(root, &out);
  return out;
}

}  // namespace obs
}  // namespace drugtree
