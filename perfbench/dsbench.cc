// dsbench: runs one workload of the dataspace benchmark and writes its raw
// record (samples, counters, checks, per-layer values) as JSON. It is
// driven by perfbench/run.py, which builds it, derives the reported
// metrics and prints the result line.
//
//   dsbench --workload fig6_uncached|desktop_sync --seed N
//           --seconds S --trace 0|1 --record PATH [--spans PATH]
//
// Exit status: 0 when the run completed (checks may still have failed;
// the record says), 2 on bad arguments or when set-up failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/common.h"

using namespace idm::perfbench;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dsbench: %s\nusage: dsbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --record PATH [--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string record_path, spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--record") {
      record_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (record_path.empty()) return Usage("--record is required");
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  Record record;
  Tracer tracer(options.trace);
  try {
    if (options.workload == "fig6_uncached") {
      RunFig6Uncached(options, &record, &tracer);
    } else if (options.workload == "desktop_sync") {
      RunDesktopSync(options, &record, &tracer);
    } else {
      return Usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 2;
  }

  Progress("run returned");
  std::FILE* f = std::fopen(record_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dsbench: cannot write %s\n", record_path.c_str());
    return 2;
  }
  std::string json = record.ToJson(options);
  bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "dsbench: cannot write %s\n", record_path.c_str());
    return 2;
  }
  if (options.trace && !spans_path.empty() && !tracer.Write(spans_path)) {
    std::fprintf(stderr, "dsbench: cannot write %s\n", spans_path.c_str());
    return 2;
  }
  return 0;
}
