#include "perfbench/common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <functional>
#include <stdexcept>

#include "index/analyzer.h"

namespace idm::perfbench {

namespace {

/// Open spans of the calling thread (innermost last): the parent link.
thread_local std::vector<int64_t> open_spans;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t DeriveSeed(uint64_t seed, const std::string& purpose) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the purpose
  for (char c : purpose) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (h | 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Progress(const std::string& what) {
  static const double start = NowSeconds();
  std::fprintf(stderr, "[dsbench] %7.2f s  %s\n", NowSeconds() - start,
               what.c_str());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

// --- host probe ------------------------------------------------------------

namespace {

/// One random cycle through \p bytes of slots (Sattolo's algorithm).
std::vector<uint32_t> RandomCycle(size_t bytes, uint64_t seed) {
  std::vector<uint32_t> cycle(bytes / sizeof(uint32_t));
  Rng rng(seed);
  for (size_t i = 0; i < cycle.size(); ++i) {
    cycle[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = cycle.size() - 1; i > 0; --i) {
    std::swap(cycle[i], cycle[rng.Uniform(i)]);
  }
  return cycle;
}

uint32_t Walk(const std::vector<uint32_t>& cycle, int hops) {
  uint32_t at = 0;
  for (int i = 0; i < hops; ++i) at = cycle[at];
  return at;
}

}  // namespace

HostProbe::HostProbe(Record* record)
    : record_(record),
      core_(RandomCycle(256u << 10, 1)),
      near_(RandomCycle(4u << 20, 2)),
      far_(RandomCycle(32u << 20, 3)) {}

void HostProbe::Sample(int times) {
  for (int n = 0; n < times; ++n) {
    double start = NowSeconds();
    // Weighted towards the shared-cache walk and the sequential sum: the
    // parts whose time swings most with the host, as the program's does.
    uint64_t x = Walk(core_, 20000);
    x += Walk(near_, 25000);
    x += Walk(far_, 2000);
    for (uint32_t slot : far_) x += slot;
    for (int i = 0; i < 200000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    sink_ += x;
    last_ = NowSeconds();
    spent_s_ += last_ - start;
    record_->Sample("host_probe", (last_ - start) * 1000.0);
  }
}

void HostProbe::Tick() {
  if (NowSeconds() - last_ >= kIntervalS) Sample();
}

// --- Record ----------------------------------------------------------------

void Record::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  // A repeated check keeps its first failure's detail and counts failures.
  auto check =
      std::find_if(checks_.begin(), checks_.end(),
                   [&](const CheckResult& c) { return c.name == name; });
  if (check == checks_.end()) {
    checks_.push_back({name, true, "", 0});
    check = checks_.end() - 1;
  }
  if (ok) return;
  if (check->ok) check->detail = detail;
  check->ok = false;
  ++check->failures;
}

std::string Record::ToJson(const RunOptions& options) const {
  std::string out = "{\"workload\": " + JsonString(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  // Writes `"key": {name: value(), ...}` over \p map.
  auto object = [&out](const char* key, const auto& map, auto value) {
    out += std::string(", \"") + key + "\": {";
    const char* separator = "";
    for (const auto& entry : map) {
      out += separator;
      out += JsonString(entry.first);
      out += ": ";
      out += value(entry.second);
      separator = ", ";
    }
    out += "}";
  };
  object("samples", samples_, [](const std::vector<double>& series) {
    std::string list = "[";
    for (size_t i = 0; i < series.size(); ++i) {
      if (i > 0) list += ",";
      list += JsonNumber(series[i]);
    }
    return list + "]";
  });
  object("values", values_, JsonNumber);
  object("layers", layers_, JsonNumber);
  object("info", info_, JsonString);
  out += ", \"checks\": [";
  const char* separator = "";
  for (const CheckResult& check : checks_) {
    out += separator;
    out += "{\"name\": " + JsonString(check.name);
    out += std::string(", \"ok\": ") + (check.ok ? "true" : "false");
    out += ", \"failures\": " + std::to_string(check.failures);
    out += ", \"detail\": " + JsonString(check.detail) + "}";
    separator = ", ";
  }
  out += "]}\n";
  return out;
}

// --- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request,
                     bool active) {
  if (tracer == nullptr || !tracer->enabled_ || !active) return;
  double now = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - tracer->origin_)
                   .count();
  std::lock_guard<std::mutex> lock(tracer->mu_);
  if (tracer->spans_.size() >= kMaxSpans) {
    ++tracer->dropped_;
    return;
  }
  Span span;
  span.name = name;
  span.start_us = now;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  tracer->spans_.push_back(std::move(span));
  id_ = static_cast<int64_t>(tracer->spans_.size()) - 1;
  tracer_ = tracer;
  open_spans.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  double now = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - tracer_->origin_)
                   .count();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[id_].end_us = now;
}

double Tracer::MeanMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  size_t count = 0;
  for (const Span& span : spans_) {
    if (span.name != name || span.end_us < 0) continue;
    total += span.end_us - span.start_us;
    ++count;
  }
  return count == 0 ? 0 : total / count / 1000.0;
}

double Tracer::TotalMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_us >= 0) {
      total += span.end_us - span.start_us;
    }
  }
  return total / 1000.0;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"dropped\": %zu, \"spans\": [\n", dropped_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}%s\n",
                 i, span.name.c_str(), span.start_us, span.end_us,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

TreeNames WalkTree(const vfs::VirtualFileSystem& fs) {
  TreeNames names;
  std::vector<std::string> stack = {"/"};
  while (!stack.empty()) {
    std::string dir = stack.back();
    stack.pop_back();
    auto children = fs.List(dir);
    if (!children.ok()) continue;
    for (const std::string& child : *children) {
      std::string path = (dir == "/" ? "" : dir) + "/" + child;
      auto info = fs.Stat(path);
      if (!info.ok()) continue;
      if (info->type == vfs::NodeType::kFolder) {
        stack.push_back(path);
        names.folder_paths.push_back(path);
      } else if (info->type == vfs::NodeType::kFile) {
        names.files.push_back(path);
      }
    }
  }
  // List order is the tree's; sort so pools depend only on the content.
  std::sort(names.folder_paths.begin(), names.folder_paths.end());
  std::sort(names.files.begin(), names.files.end());
  return names;
}

std::vector<std::string> SampleContentWords(uint64_t seed) {
  Rng rng(seed);
  workload::TextGenerator text(&rng);
  std::vector<std::string> tokens;
  std::string sample = text.Words(40000);
  std::string current;
  for (char c : sample) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current += c;
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(current);
  std::map<std::string, size_t> freq;
  for (const std::string& token : tokens) ++freq[token];
  std::vector<std::pair<size_t, std::string>> ranked;
  for (const auto& [word, count] : freq) ranked.push_back({count, word});
  std::sort(ranked.rbegin(), ranked.rend());
  std::set<std::string> function_words;
  for (size_t i = 0; i < ranked.size() && i < 40; ++i) {
    function_words.insert(ranked[i].second);
  }
  std::vector<std::string> words;
  for (size_t i = function_words.size(); i < ranked.size(); ++i) {
    words.push_back(ranked[i].second);
  }
  return words;
}

// --- set-up ----------------------------------------------------------------

Setup SetUp(const workload::DataspaceSpec& spec,
            iql::Dataspace::Config config) {
  Setup setup;
  double t0 = NowSeconds();
  setup.env = std::make_unique<storage::MemEnv>();
  config.storage_dir = "perfbench-db";
  config.env = setup.env.get();
  setup.ds = std::make_unique<iql::Dataspace>(config);
  Require(setup.ds->storage_status(), "open storage");
  setup.sources = workload::Generate(spec, setup.ds->clock());
  setup.generate_s = NowSeconds() - t0;
  auto fs = setup.ds->AddFileSystem("Filesystem", setup.sources.fs);
  Require(fs.status(), "index filesystem");
  setup.fs_stats = *fs;
  auto mail = setup.ds->AddImap("Email / IMAP", setup.sources.imap);
  Require(mail.status(), "index email");
  setup.mail_stats = *mail;
  Require(setup.ds->Checkpoint(), "initial checkpoint");
  setup.total_s = NowSeconds() - t0;
  return setup;
}

void RecordSetup(const Setup& setup, Record* record) {
  const rvm::ReplicaIndexesModule& module = setup.ds->module();
  rvm::IndexSizes sizes = module.Sizes();
  record->Value("space_amp", static_cast<double>(sizes.total()) /
                                 static_cast<double>(setup.net_input_bytes()));
  record->Value("views", static_cast<double>(module.catalog().live_count()));
  record->Value("net_input_mb", setup.net_input_bytes() / 1048576.0);

  record->Layer("workload.generate_s", setup.generate_s);
  const rvm::PhaseTimes& fs = setup.fs_stats.times;
  const rvm::PhaseTimes& mail = setup.mail_stats.times;
  record->Layer("rvm.component_indexing_s",
                (fs.component_indexing + mail.component_indexing) / 1e6);
  record->Layer("rvm.catalog_insert_s",
                (fs.catalog_insert + mail.catalog_insert) / 1e6);
  constexpr double kMb = 1048576.0;
  record->Layer("index.content_mb", sizes.content_bytes / kMb);
  record->Layer("index.name_mb", sizes.name_bytes / kMb);
  record->Layer("index.tuple_mb", sizes.tuple_bytes / kMb);
  record->Layer("index.group_mb", sizes.group_bytes / kMb);
  record->Layer("index.catalog_mb", sizes.catalog_bytes / kMb);
}

// --- per-layer replays -----------------------------------------------------

namespace {

bool IsWildcardOnly(const std::string& pattern) {
  return pattern.empty() || pattern == "*";
}

void ReplayPredicate(const iql::Dataspace& ds, const iql::PredNode& pred,
                     Tracer* tracer, uint64_t request) {
  const rvm::ReplicaIndexesModule& module = ds.module();
  switch (pred.kind) {
    case iql::PredNode::Kind::kAnd:
    case iql::PredNode::Kind::kOr:
    case iql::PredNode::Kind::kNot:
      for (const auto& child : pred.children) {
        ReplayPredicate(ds, *child, tracer, request);
      }
      break;
    case iql::PredNode::Kind::kPhrase: {
      Tracer::Scope span(tracer, "index.postings", request, true);
      std::vector<std::string> terms = index::PhraseTerms(pred.text);
      if (terms.size() == 1) {
        // A keyword: membership plus the tf pairs ranking reads.
        (void)module.content().TermDocs(terms[0]);
        (void)module.content().TermQueryWithTf(terms[0]);
      } else if (!terms.empty()) {
        (void)module.content().PhraseDocs(pred.text);
      }
      break;
    }
    case iql::PredNode::Kind::kCompare: {
      if (pred.literal_kind != iql::PredNode::LiteralKind::kValue) break;
      Tracer::Scope span(tracer, "index.tuple_scan", request, true);
      (void)module.tuples().Scan(pred.attribute, pred.op, pred.literal);
      break;
    }
    case iql::PredNode::Kind::kNameEq: {
      if (IsWildcardOnly(pred.text)) break;
      Tracer::Scope span(tracer, "index.name_pattern", request, true);
      (void)module.names().LookupPattern(pred.text);
      break;
    }
    case iql::PredNode::Kind::kClassEq:
      break;
  }
}

void ReplayQuery(const iql::Dataspace& ds, const iql::Query& query,
                 Tracer* tracer, uint64_t request) {
  const rvm::ReplicaIndexesModule& module = ds.module();
  switch (query.kind) {
    case iql::Query::Kind::kFilter:
      if (query.filter) ReplayPredicate(ds, *query.filter, tracer, request);
      break;
    case iql::Query::Kind::kPath: {
      std::vector<std::vector<index::DocId>> matches(query.steps.size());
      for (size_t i = 0; i < query.steps.size(); ++i) {
        const iql::PathStep& step = query.steps[i];
        if (!IsWildcardOnly(step.name_pattern)) {
          Tracer::Scope span(tracer, "index.name_pattern", request, true);
          matches[i] = module.names().LookupPattern(step.name_pattern);
        }
        if (step.predicate) {
          ReplayPredicate(ds, *step.predicate, tracer, request);
        }
      }
      // Descendant steps: walk down from a named previous step, or up from
      // a named current step when the previous one is a wildcard.
      for (size_t i = 1; i < query.steps.size(); ++i) {
        if (!query.steps[i].descendant) continue;
        Tracer::Scope span(tracer, "index.group_walk", request, true);
        if (!matches[i - 1].empty()) {
          (void)module.groups().Descendants(matches[i - 1]);
        } else if (!matches[i].empty()) {
          (void)module.groups().Ancestors(matches[i]);
        }
      }
      break;
    }
    case iql::Query::Kind::kUnion:
    case iql::Query::Kind::kIntersect:
    case iql::Query::Kind::kExcept:
      for (const auto& arm : query.arms) ReplayQuery(ds, *arm, tracer, request);
      break;
    case iql::Query::Kind::kJoin:
      ReplayQuery(ds, *query.join->left, tracer, request);
      ReplayQuery(ds, *query.join->right, tracer, request);
      break;
  }
}

}  // namespace

void ReplayIndexLayers(const iql::Dataspace& ds, const iql::Query& query,
                       Tracer* tracer, uint64_t request) {
  {
    Tracer::Scope span(tracer, "index.live_ids", request, true);
    (void)ds.module().catalog().LiveIds();
  }
  ReplayQuery(ds, query, tracer, request);
}

void ProbeTotals::Add(const iql::QueryResult& result) {
  ++evaluated;
  expanded += result.expanded_views;
  name += result.probes.name_lookups;
  content += result.probes.content_phrases;
  tuple += result.probes.tuple_scans;
  graph += result.probes.graph_walks;
}

void ProbeTotals::Report(Record* record) const {
  double n = evaluated == 0 ? 1.0 : static_cast<double>(evaluated);
  record->Layer("iql.expanded_views", expanded / n);
  record->Layer("iql.probes.name", name / n);
  record->Layer("iql.probes.content", content / n);
  record->Layer("iql.probes.tuple", tuple / n);
  record->Layer("iql.probes.graph", graph / n);
}

uint64_t RowFingerprint(const iql::QueryResult& result) {
  // Sum of per-row hashes: independent of row order, so ranked results
  // whose ties reorder still compare equal when they hold the same rows.
  uint64_t total = result.rows.size();
  for (const auto& row : result.rows) {
    uint64_t h = 1469598103934665603ULL;
    for (index::DocId id : row) {
      h = (h ^ id) * 1099511628211ULL;
      h ^= h >> 29;
    }
    total += h * 0x9E3779B97F4A7C15ULL;
  }
  return total;
}

}  // namespace idm::perfbench
