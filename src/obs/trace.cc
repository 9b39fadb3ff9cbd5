#include "obs/trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace fuzzydb {

namespace {

std::string FormatCpu(const CpuStats& cpu) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "cpu={pairs=%llu degrees=%llu cmp=%llu subq=%llu}",
                static_cast<unsigned long long>(cpu.tuple_pairs),
                static_cast<unsigned long long>(cpu.degree_evaluations),
                static_cast<unsigned long long>(cpu.comparisons),
                static_cast<unsigned long long>(cpu.subquery_evaluations));
  return buf;
}

std::string FormatIo(const IoStats& io) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "io={reads=%llu writes=%llu hits=%llu}",
                static_cast<unsigned long long>(io.page_reads),
                static_cast<unsigned long long>(io.page_writes),
                static_cast<unsigned long long>(io.buffer_hits));
  return buf;
}

/// Escapes a string for inclusion in a JSON string literal. Span names
/// and details are plain identifiers today; this keeps the exporters
/// correct if one ever carries a quote or backslash.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendField(std::string* out, const char* key, uint64_t value) {
  if (value == TraceNode::kNoCount) return;  // not reported
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", key,
                static_cast<unsigned long long>(value));
  *out += buf;
}

/// The counter and cardinality fields both JSON exporters write.
void AppendNodeFields(const TraceNode& node, bool buffer_hits,
                      std::string* out) {
  AppendField(out, "pairs", node.cpu.tuple_pairs);
  AppendField(out, "degree_evals", node.cpu.degree_evaluations);
  AppendField(out, "comparisons", node.cpu.comparisons);
  AppendField(out, "subquery_evals", node.cpu.subquery_evaluations);
  AppendField(out, "page_reads", node.io.page_reads);
  AppendField(out, "page_writes", node.io.page_writes);
  if (buffer_hits) AppendField(out, "buffer_hits", node.io.buffer_hits);
  AppendField(out, "threads", node.threads);
  AppendField(out, "rows_in", node.input_rows);
  AppendField(out, "rows_out", node.output_rows);
  AppendField(out, "est_rows", node.est_rows);
  AppendField(out, "batches", node.batches);
  AppendField(out, "batch_rows", node.batch_rows);
}

}  // namespace

size_t ExecTrace::OpenSpan(std::string name, std::string detail,
                           Clock::time_point at) {
  const size_t id = nodes_.size();
  TraceNode node;
  node.name = std::move(name);
  node.detail = std::move(detail);
  node.start_seconds = SecondsAt(at);
  nodes_.push_back(std::move(node));
  if (open_.empty()) {
    roots_.push_back(id);
  } else {
    nodes_[open_.back()].children.push_back(id);
  }
  open_.push_back(id);
  return id;
}

void ExecTrace::CloseSpan(size_t id, Clock::time_point at) {
  assert(!open_.empty() && open_.back() == id && "mis-nested trace spans");
  // Tolerate (and close) spans a misbehaving operator left open below
  // `id` so the tree stays well formed in Release builds.
  while (!open_.empty()) {
    const size_t top = open_.back();
    open_.pop_back();
    nodes_[top].wall_seconds = SecondsAt(at) - nodes_[top].start_seconds;
    if (top == id) break;
  }
}

CpuStats ExecTrace::TotalCpu() const {
  CpuStats total;
  for (size_t root : roots_) total += nodes_[root].cpu;
  return total;
}

IoStats ExecTrace::TotalIo() const {
  IoStats total;
  for (size_t root : roots_) total += nodes_[root].io;
  return total;
}

CpuStats ExecTrace::SelfCpu(size_t id) const {
  CpuStats children;
  for (size_t child : nodes_[id].children) children += nodes_[child].cpu;
  return nodes_[id].cpu.CheckedDelta(children);
}

void ExecTrace::AppendText(size_t id, int depth, bool include_timing,
                           std::string* out) const {
  const TraceNode& node = nodes_[id];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.name;
  if (!node.detail.empty()) {
    *out += " [";
    *out += node.detail;
    *out += "]";
  }
  if (include_timing) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " wall=%.3fms",
                  node.wall_seconds * 1000.0);
    *out += buf;
  }
  if (node.input_rows != TraceNode::kNoCount ||
      node.output_rows != TraceNode::kNoCount) {
    *out += " rows=";
    if (node.input_rows != TraceNode::kNoCount) {
      *out += std::to_string(node.input_rows);
    }
    if (node.output_rows != TraceNode::kNoCount) {
      *out += "->";
      *out += std::to_string(node.output_rows);
    }
  }
  if (node.est_rows != TraceNode::kNoCount) {
    *out += " est=";
    *out += std::to_string(node.est_rows);
  }
  if (node.batches != TraceNode::kNoCount && node.batches > 0) {
    *out += " batches=";
    *out += std::to_string(node.batches);
    *out += " rows/batch=";
    *out += std::to_string(node.batch_rows / node.batches);
  }
  if (node.threads > 1) {
    *out += " threads=";
    *out += std::to_string(node.threads);
  }
  *out += " ";
  *out += FormatCpu(node.cpu);
  if (node.io.TotalIos() + node.io.buffer_hits > 0) {
    *out += " ";
    *out += FormatIo(node.io);
  }
  if (node.clamped) *out += " CLAMPED";
  *out += "\n";
  for (size_t child : node.children) {
    AppendText(child, depth + 1, include_timing, out);
  }
}

std::string ExecTrace::ToString(bool include_timing) const {
  std::string out;
  for (size_t root : roots_) AppendText(root, 0, include_timing, &out);
  return out;
}

std::string ExecTrace::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const TraceNode& node = nodes_[i];
    if (!first) out += ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"%s\",\"cat\":\"fuzzydb\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  JsonEscape(node.name).c_str(), node.start_seconds * 1e6,
                  node.wall_seconds * 1e6);
    out += buf;
    out += "\"detail\":\"" + JsonEscape(node.detail) + "\"";
    AppendNodeFields(node, /*buffer_hits=*/false, &out);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

void ExecTrace::AppendSummary(size_t id, int depth, bool* first,
                              std::string* out) const {
  const TraceNode& node = nodes_[id];
  if (!*first) *out += ",\n";
  *first = false;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"op\":\"%s\",\"depth\":%d",
                JsonEscape(node.name).c_str(), depth);
  *out += buf;
  *out += ",\"detail\":\"" + JsonEscape(node.detail) + "\"";
  std::snprintf(buf, sizeof(buf), ",\"wall_ms\":%.4f",
                node.wall_seconds * 1000.0);
  *out += buf;
  AppendNodeFields(node, /*buffer_hits=*/true, out);
  *out += "}";
  for (size_t child : node.children) {
    AppendSummary(child, depth + 1, first, out);
  }
}

std::string ExecTrace::ToJsonSummary() const {
  std::string out = "[";
  bool first = true;
  for (size_t root : roots_) AppendSummary(root, 0, &first, &out);
  out += "]";
  return out;
}

}  // namespace fuzzydb
