// Shared plumbing for the dataspace benchmark binary (dsbench): the raw
// record a run hands to perfbench/run.py, the in-memory span tracer of the
// traced run, dataspace set-up, and the per-layer index replays.
//
// The binary only measures and checks; run.py turns the raw samples into
// the reported metrics (medians, tail percentiles, rates).

#ifndef IDM_PERFBENCH_COMMON_H_
#define IDM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "iql/dataspace.h"
#include "storage/env.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace idm::perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
};

/// Seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// A per-purpose seed: the run seed mixed with \p purpose, so the
/// generator, the query pools and the write script draw independent
/// streams that all follow from the one --seed argument.
uint64_t DeriveSeed(uint64_t seed, const std::string& purpose);

/// Logs "[dsbench] <seconds since start> <what>" to stderr: where a run's
/// wall time goes, for whoever watches it.
void Progress(const std::string& what);

/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

/// Everything a run measured, in raw form. Written as JSON for run.py.
/// Not thread-safe: concurrent clients keep their own tallies.
class Record {
 public:
  /// Appends a latency sample (ms) to the series \p name.
  void Sample(const std::string& name, double ms) {
    samples_[name].push_back(ms);
  }
  /// Sets a scalar (setup times, elapsed time, space ratios, ...).
  void Value(const std::string& name, double value) { values_[name] = value; }
  /// Sets a per-layer metric of the traced run.
  void Layer(const std::string& name, double value) { layers_[name] = value; }
  /// Descriptive facts printed by run.py (pool sizes, scale, ...).
  void Info(const std::string& name, const std::string& value) {
    info_[name] = value;
  }
  /// Records a correctness check; a failed one fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail = "");

  uint64_t attempted = 0;  ///< operations issued (queries + writes)
  uint64_t failed = 0;     ///< of those, failed or refused

  std::string ToJson(const RunOptions& options) const;

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;  ///< of the first failure
    size_t failures;
  };
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, double> layers_;
  std::map<std::string, std::string> info_;
  std::vector<CheckResult> checks_;
};

/// A fixed measure of the host's current speed that does not depend on the
/// program: dependent walks over random cycles of 256 KiB, 4 MiB and
/// 32 MiB (the latency of a core's own cache, the shared cache and
/// memory), a sequential sum over 32 MiB (memory bandwidth) and an integer
/// hash loop, about 10 ms in all. Its inputs never change, so its time
/// moves only with the machine: memory and cache contention from other
/// tenants, frequency, steal. run.py divides every reported time by
/// the run's median probe time (as a share of a fixed reference), so a
/// slower or faster host moves the probe and the workload together and
/// cancels out. Sampled only while no query or write is running.
class HostProbe {
 public:
  explicit HostProbe(Record* record);

  /// Runs the probe \p times, each sample (ms) to the "host_probe" series.
  void Sample(int times = 1);
  /// Samples once when at least kIntervalS passed since the last sample:
  /// called between the operations of a timed loop.
  void Tick();
  /// Wall seconds spent probing so far (subtracted from loop time).
  double spent_s() const { return spent_s_; }

 private:
  static constexpr double kIntervalS = 0.25;

  Record* record_;
  std::vector<uint32_t> core_, near_, far_;
  double last_ = 0;
  double spent_s_ = 0;
  uint64_t sink_ = 0;
};

/// In-memory span log for the traced run: each span has a name, start,
/// end, parent span and request id. Spans are recorded around the calls
/// the benchmark makes into the program's public API; nothing inside the
/// program is instrumented. Written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span; a disabled or inactive scope records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request, bool active);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when not recording
    int64_t id_ = -1;
  };

  bool enabled() const { return enabled_; }

  /// Mean and total duration (ms) of the finished spans named \p name
  /// (0 when there are none).
  double MeanMs(const std::string& name) const;
  double TotalMs(const std::string& name) const;

  /// Writes all spans as a JSON array to \p path; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = -1;
    int64_t parent = -1;
    uint64_t request = 0;
  };
  static constexpr size_t kMaxSpans = 1u << 20;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  size_t dropped_ = 0;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// Full paths of the generated file tree's folders and files.
struct TreeNames {
  std::vector<std::string> folder_paths;
  std::vector<std::string> files;
};

/// Walks the file tree (links are not followed), sorted by path.
TreeNames WalkTree(const vfs::VirtualFileSystem& fs);

/// Content words of a TextGenerator sample, most frequent first (the
/// sample's 40 most frequent words, the function words, are left out).
std::vector<std::string> SampleContentWords(uint64_t seed);

/// A uniformly drawn element of a non-empty \p items.
template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& items) {
  return items[rng.Uniform(items.size())];
}

/// Fisher-Yates shuffle of \p items driven by \p rng.
template <typename T>
void Shuffle(Rng& rng, std::vector<T>& items) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Uniform(i)]);
  }
}

/// A generated, indexed dataspace plus what its set-up cost.
struct Setup {
  std::unique_ptr<storage::MemEnv> env;
  std::unique_ptr<iql::Dataspace> ds;
  workload::BuiltDataspace sources;
  rvm::SourceIndexStats fs_stats;
  rvm::SourceIndexStats mail_stats;
  double generate_s = 0;
  double total_s = 0;  ///< generate + index + initial checkpoint

  uint64_t net_input_bytes() const {
    return fs_stats.net_input_bytes + mail_stats.net_input_bytes;
  }
};

/// Generates \p spec and indexes both sources into a dataspace that logs
/// to a fresh MemEnv (fsync on every commit, the default policy), then
/// takes the initial checkpoint. Throws std::runtime_error on any failure.
Setup SetUp(const workload::DataspaceSpec& spec,
            iql::Dataspace::Config config);

/// Records the set-up facts every workload reports: space amplification
/// (Table 3 ratio) and, for the traced run, the set-up and size layers.
void RecordSetup(const Setup& setup, Record* record);

/// Replays the index-layer calls a query's shape implies (live set, name
/// patterns, postings, tuple scans, group walks), each in its own span
/// under \p request, so the traced run attributes evaluation time to the
/// index layers from outside the program.
void ReplayIndexLayers(const iql::Dataspace& ds, const iql::Query& query,
                       Tracer* tracer, uint64_t request);

/// Accumulates QueryResult counters over the evaluated (non-cache-hit)
/// queries of the traced run.
struct ProbeTotals {
  uint64_t evaluated = 0;
  uint64_t expanded = 0;
  uint64_t name = 0, content = 0, tuple = 0, graph = 0;
  void Add(const iql::QueryResult& result);
  void Report(Record* record) const;
};

/// Order-independent fingerprint of a result's rows.
uint64_t RowFingerprint(const iql::QueryResult& result);

/// The two workloads (workloads.cc). Each throws std::runtime_error when
/// the run cannot proceed (set-up failure); failed operations and failed
/// checks are recorded instead.
void RunFig6Uncached(const RunOptions& options, Record* record, Tracer* tracer);
void RunDesktopSync(const RunOptions& options, Record* record, Tracer* tracer);

}  // namespace idm::perfbench

#endif  // IDM_PERFBENCH_COMMON_H_
