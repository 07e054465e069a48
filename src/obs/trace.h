// Deterministic tracing for the observability layer (DESIGN.md §11).
//
// A Trace is a tree of TraceSpans timestamped on the dataspace clock —
// usually the SimClock, so span timestamps (and therefore the exported
// JSON) are bit-for-bit reproducible across runs and machines. One trace
// records one operation: a query (parse → cache → evaluation arms → index
// probes), a checkpoint (wal append/fsync → snapshot write → rotation), a
// recovery, or a federated query (one span per peer RPC).
//
// Concurrency: federation's per-peer queries attach children to a shared
// parent span; AddChild/SetAttr lock the span they touch, nothing else.
// For a deterministic tree shape under fan-out, the federation pre-creates
// the peer spans in registration order *before* scattering and hands each
// peer its span.
//
// Exports:
//   ToJson() — Chrome trace_event "Complete" events (load into
//              chrome://tracing or Perfetto). Timestamps are relative to
//              the root span so golden files survive clock re-basing.
//   ToText() — an indented tree for terminals and README examples.

#ifndef IDM_OBS_TRACE_H_
#define IDM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace idm::obs {

class Trace;

/// One node of a trace tree. Created via Trace::root() / AddChild(); spans
/// are owned by their parent and live as long as the whole Trace.
class TraceSpan {
 public:
  const std::string& name() const { return name_; }
  Micros start_micros() const { return start_; }
  /// End timestamp; equals start_micros() until End() is called.
  Micros end_micros() const { return end_; }
  Micros duration_micros() const { return end_ - start_; }

  /// Child span starting now (on the trace's clock). Returns nullptr when
  /// the trace's span budget is exhausted (the trace is then marked
  /// truncated) — callers must tolerate a null child, and ScopedSpan does.
  TraceSpan* AddChild(std::string name);

  /// Stamps the end time from the trace's clock (first call wins).
  void End();

  /// Attaches a key/value annotation. Keys keep insertion order in the
  /// exports; values are strings (use the int64 overload for numbers).
  void SetAttr(std::string key, std::string value);
  void SetAttr(std::string key, int64_t value);

  /// --- read access (export, tests); safe once the operation finished ----
  std::vector<const TraceSpan*> children() const;
  std::vector<std::pair<std::string, std::string>> attrs() const;
  /// First attribute value for \p key, or "" when absent.
  std::string AttrOr(const std::string& key) const;
  /// First direct child named \p name, or nullptr.
  const TraceSpan* FindChild(const std::string& name) const;
  /// First span named \p name in this subtree (pre-order), or nullptr.
  const TraceSpan* FindDescendant(const std::string& name) const;
  /// Number of spans in this subtree, including this one.
  size_t SubtreeSize() const;

 private:
  friend class Trace;
  TraceSpan(Trace* trace, std::string name, Micros start)
      : trace_(trace), name_(std::move(name)), start_(start), end_(start) {}

  Trace* trace_;
  std::string name_;
  Micros start_;
  Micros end_;
  std::atomic<bool> ended_{false};
  mutable std::mutex mu_;  ///< guards children_ and attrs_
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<TraceSpan>> children_;
};

/// A bounded tree of spans on one clock. Thread-compatible: concurrent
/// mutation of *different* spans is safe, see the file comment.
class Trace {
 public:
  /// \p clock may be nullptr (all timestamps 0 — still a valid tree).
  /// \p max_spans bounds the tree; AddChild beyond it returns nullptr.
  Trace(const Clock* clock, std::string name, size_t max_spans = 4096);

  TraceSpan* root() { return root_.get(); }
  const TraceSpan& root() const { return *root_; }
  Micros NowMicros() const { return clock_ == nullptr ? 0 : clock_->NowMicros(); }

  size_t span_count() const { return span_count_.load(std::memory_order_relaxed); }
  /// True when the span budget refused at least one AddChild.
  bool truncated() const { return truncated_.load(std::memory_order_relaxed); }

  /// Chrome trace_event JSON ("Complete" events, ts relative to the root).
  std::string ToJson() const;
  /// Indented text rendering of the tree.
  std::string ToText() const;

 private:
  friend class TraceSpan;
  /// Reserves one span against the budget; false = refuse (and mark).
  bool ReserveSpan();

  const Clock* clock_;
  size_t max_spans_;
  std::atomic<size_t> span_count_{0};
  std::atomic<bool> truncated_{false};
  std::unique_ptr<TraceSpan> root_;
};

/// RAII child span. Null-safe end to end: with a null parent (tracing off
/// or span budget exhausted) construction does nothing and get() returns
/// nullptr, so instrumentation sites need no enabled-checks of their own.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceSpan* parent, std::string name)
      : span_(parent == nullptr ? nullptr : parent->AddChild(std::move(name))) {}
  ~ScopedSpan() {
    if (span_ != nullptr) span_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceSpan* get() const { return span_; }
  explicit operator bool() const { return span_ != nullptr; }

 private:
  TraceSpan* span_ = nullptr;
};

}  // namespace idm::obs

#endif  // IDM_OBS_TRACE_H_
