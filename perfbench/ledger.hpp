#pragma once
// Span-tree accounting for one traced request: self time per span and the
// attribution of the request's wall time along its blocking path.
//
// Self time is a span's duration minus the *union* of its children's
// intervals, clipped to the span.  Subtracting the sum of child durations
// instead goes negative under fan-out: a pool.request whose four
// sample.request children run in parallel would lose four times the time
// they actually cover.
//
// The blocking path walks back from a span's end: the child that ends last
// (clipped to the window) blocked the span up to that point, the gap after
// it is the span's own time, and the walk continues from that child's
// start.  Every nanosecond of a window goes to exactly one span, so the
// attributions of a request sum to its root span's duration.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Length of the union of `spans` clipped to [lo, hi].
inline std::uint64_t covered_ns(std::vector<Interval> spans, std::uint64_t lo,
                                std::uint64_t hi) {
  std::vector<Interval> clipped;
  for (const Interval& s : spans) {
    const std::uint64_t a = std::max(s.lo, lo);
    const std::uint64_t b = std::min(s.hi, hi);
    if (a < b) clipped.push_back({a, b});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& x, const Interval& y) { return x.lo < y.lo; });
  std::uint64_t total = 0;
  std::uint64_t cur_lo = 0;
  std::uint64_t cur_hi = 0;
  bool open = false;
  for (const Interval& s : clipped) {
    if (open && s.lo <= cur_hi) {
      cur_hi = std::max(cur_hi, s.hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = s.lo;
    cur_hi = s.hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

struct SpanNode {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::string name;
};

/// The spans of one request, linked by parent id.  Spans whose parent is
/// not among them are roots; a well-formed request has exactly one.
class SpanTree {
 public:
  explicit SpanTree(std::vector<SpanNode> nodes) : nodes_(std::move(nodes)) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < nodes_.size(); ++i) index[nodes_[i].id] = i;
    children_.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto p = index.find(nodes_[i].parent);
      if (nodes_[i].parent != 0 && p != index.end() && p->second != i)
        children_[p->second].push_back(i);
      else
        roots_.push_back(i);
    }
  }

  const std::vector<SpanNode>& nodes() const { return nodes_; }
  const std::vector<std::size_t>& roots() const { return roots_; }
  const std::vector<std::size_t>& children(std::size_t i) const {
    return children_[i];
  }

  std::uint64_t duration_ns(std::size_t i) const {
    return nodes_[i].end > nodes_[i].start ? nodes_[i].end - nodes_[i].start
                                           : 0;
  }

  /// Duration minus the union of the children's intervals within the span.
  std::uint64_t self_ns(std::size_t i) const {
    std::vector<Interval> kids;
    for (std::size_t c : children_[i])
      kids.push_back({nodes_[c].start, nodes_[c].end});
    return duration_ns(i) - covered_ns(kids, nodes_[i].start, nodes_[i].end);
  }

  /// Adds to out[name] the time each span under `i` spends on the blocking
  /// path of the whole span `i`.
  void blocking_path(std::size_t i,
                     std::map<std::string, std::uint64_t>& out) const {
    if (nodes_[i].end > nodes_[i].start)
      walk(i, nodes_[i].start, nodes_[i].end, out);
  }

 private:
  void walk(std::size_t i, std::uint64_t lo, std::uint64_t hi,
            std::map<std::string, std::uint64_t>& out) const {
    std::uint64_t t = hi;
    while (t > lo) {
      // The child that was still running latest before t.
      std::size_t best = nodes_.size();
      std::uint64_t best_end = 0;
      for (std::size_t c : children_[i]) {
        const std::uint64_t a = std::max(nodes_[c].start, lo);
        const std::uint64_t b = std::min(nodes_[c].end, t);
        if (a >= b) continue;
        if (best == nodes_.size() || b > best_end ||
            (b == best_end && a < std::max(nodes_[best].start, lo))) {
          best = c;
          best_end = b;
        }
      }
      if (best == nodes_.size()) {
        out[nodes_[i].name] += t - lo;
        return;
      }
      out[nodes_[i].name] += t - best_end;
      const std::uint64_t child_lo = std::max(nodes_[best].start, lo);
      walk(best, child_lo, best_end, out);
      t = child_lo;
    }
  }

  std::vector<SpanNode> nodes_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::size_t> roots_;
};

}  // namespace perfbench
