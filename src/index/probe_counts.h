// Per-query index-probe counters (DESIGN.md §11).
//
// The index structures themselves stay free of instrumentation state — they
// are copied and wholesale-replaced on snapshot restore, so atomics inside
// them would be awkward and the counts would survive restores they should
// not. Instead the query evaluator accumulates one plain ProbeCounts per
// evaluation (next to its rule ledger), so the totals are deterministic.

#ifndef IDM_INDEX_PROBE_COUNTS_H_
#define IDM_INDEX_PROBE_COUNTS_H_

#include <cstdint>

namespace idm::index {

/// Counts of index lookups issued while evaluating one query.
struct ProbeCounts {
  uint64_t name_lookups = 0;     ///< R2 name-index pattern lookups
  uint64_t content_phrases = 0;  ///< R1 inverted-index phrase queries
  uint64_t tuple_scans = 0;      ///< R3 attribute-table scans
  uint64_t graph_walks = 0;      ///< R4/R6 descendant / reached-from walks

  uint64_t total() const {
    return name_lookups + content_phrases + tuple_scans + graph_walks;
  }
};

}  // namespace idm::index

#endif  // IDM_INDEX_PROBE_COUNTS_H_
