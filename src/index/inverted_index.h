// Inverted full-text index with positional postings: the from-scratch
// replacement for the Apache Lucene indexes of the paper's prototype
// (§7.2: the Name Index&Replica and the Content Index). Supports term,
// boolean AND/OR and exact phrase queries. Not a replica: original text is
// not retained (paper: "that index is not able to return the original
// content component").
//
// Storage is Lucene-style: one compressed posting list per term, a byte
// blob of varint-encoded [doc-id delta, position count, position deltas...]
// records. Appending documents in increasing id order extends blobs in
// place. Every other mutation is a splice of one record: an allocation-free
// forward scan finds the doc's record, its bytes are erased, replaced or
// inserted, and only the successor's doc delta is re-encoded (removal folds
// the erased delta into it; insertion splits it). Re-indexing an id (an
// edit, or WAL replay of a content add) rewrites shared terms' records in
// place and splices only the terms that left or joined the text. Blobs stay
// in the one canonical encoding, so Serialize() images do not depend on the
// mutation history.
//
// Block acceleration (DESIGN.md §16): on top of the blob each term lazily
// gets an immutable block index — runs of up to kBlockDocs doc ids, each
// block re-encoded as delta varints or a bitset (whichever is smaller)
// with its [first, last] doc range acting as a skip pointer and the byte
// offset of its first blob record kept for targeted position decoding.
// TermDocs/AndDocs/PhraseDocs answer from blocks with block-wise
// range-skipping intersection and decode positions only for intersection
// survivors; results are identical to the ExecContext-free TermQuery/
// AndQuery/PhraseQuery. Blocks are a query-side cache: mutations drop the
// affected terms' blocks, and nothing about Serialize()'s format changes.

#ifndef IDM_INDEX_INVERTED_INDEX_H_
#define IDM_INDEX_INVERTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/exec_context.h"
#include "util/result.h"

namespace idm::index {

/// Catalog-assigned view identifier (see catalog.h).
using DocId = uint64_t;

class InvertedIndex {
 public:
  InvertedIndex() = default;
  // Copies and moves carry the postings but not the lazily built block
  // cache (mutex/atomic members are not copyable; blocks rebuild on demand).
  InvertedIndex(const InvertedIndex& other);
  InvertedIndex& operator=(const InvertedIndex& other);
  InvertedIndex(InvertedIndex&& other) noexcept;
  InvertedIndex& operator=(InvertedIndex&& other) noexcept;

  /// Indexes \p text under \p id. Re-adding an id replaces its old text.
  void AddDocument(DocId id, const std::string& text);

  /// Removes a document from all posting lists. Unknown ids are a no-op.
  void RemoveDocument(DocId id);

  /// Ids whose text contains \p term (normalized), sorted ascending.
  ///
  /// All query methods take an optional ExecContext: under governance each
  /// decoded posting counts one step and a doomed context stops the scan,
  /// leaving a truncated (still sorted) result — callers must check
  /// ctx->status() before treating it as complete.
  std::vector<DocId> TermQuery(const std::string& term,
                               util::ExecContext* ctx = nullptr) const;

  /// Ids containing *all* terms, sorted ascending.
  std::vector<DocId> AndQuery(const std::vector<std::string>& terms,
                              util::ExecContext* ctx = nullptr) const;

  /// Ids containing *any* term, sorted ascending.
  std::vector<DocId> OrQuery(const std::vector<std::string>& terms,
                             util::ExecContext* ctx = nullptr) const;

  /// Ids containing the terms of \p phrase at consecutive positions. A
  /// single-term phrase degenerates to TermQuery; an empty phrase matches
  /// nothing.
  std::vector<DocId> PhraseQuery(const std::string& phrase,
                                 util::ExecContext* ctx = nullptr) const;

  /// Like TermQuery, but also returns each document's term frequency
  /// (occurrence count) — the raw material for tf-idf ranking.
  std::vector<std::pair<DocId, uint32_t>> TermQueryWithTf(
      const std::string& term, util::ExecContext* ctx = nullptr) const;

  /// Documents containing \p term (document frequency), for idf weights.
  size_t DocumentFrequency(const std::string& term) const;

  /// --- blocked (compressed, skip-pointer) query path ----------------------
  /// Same answers as the ungoverned TermQuery/AndQuery/PhraseQuery, served
  /// from the per-term block indexes. No ExecContext parameter on purpose:
  /// governed evaluation must tick per posting in blob order and therefore
  /// takes the classic methods; the blocked path is the fast lane for
  /// ungoverned (complete-result) execution. Thread-safe against other
  /// readers; not against concurrent mutation (like every query method).
  std::vector<DocId> TermDocs(const std::string& term) const;
  std::vector<DocId> AndDocs(const std::vector<std::string>& terms) const;
  std::vector<DocId> PhraseDocs(const std::string& phrase) const;
  /// Same pairs as TermQueryWithTf, zipped from the block index and its
  /// tf sidecar — ranking without re-skipping the blob's position
  /// varints. Ranking never ticks (in either engine), so this has no
  /// governed counterpart.
  std::vector<std::pair<DocId, uint32_t>> TermTfDocs(
      const std::string& term) const;

  /// Block-cache activity counters (stats.vm.* feeds from these).
  struct BlockStats {
    uint64_t built_lists = 0;    ///< term block indexes built so far
    uint64_t varint_blocks = 0;  ///< blocks resident in delta-varint form
    uint64_t bitset_blocks = 0;  ///< blocks resident in bitset form
    uint64_t block_bytes = 0;    ///< resident block bytes (docs payload)
    uint64_t skipped_blocks = 0; ///< blocks skipped by range disjointness
  };
  BlockStats block_stats() const;

  /// Bytes of the compressed postings representation actually resident:
  /// varint blobs plus whatever block indexes have been built.
  size_t CompressedPostingsBytes() const;

  /// Bytes a raw uncompressed postings layout would occupy (8 bytes per
  /// posting doc id + 4 bytes per position) — the Table 3 style baseline
  /// the compressed representation is measured against.
  size_t UncompressedPostingsBytes() const;

  size_t doc_count() const { return doc_terms_.size(); }
  size_t term_count() const { return lists_.size(); }
  uint64_t total_tokens() const { return total_tokens_; }

  /// Approximate memory footprint in bytes (posting blobs + dictionaries);
  /// used for the paper's Table 3 index-size accounting.
  size_t MemoryUsage() const;

  /// Deterministic binary image (term dictionary sorted by term, posting
  /// blobs verbatim, doc->terms map sorted by doc) for checkpoints.
  std::string Serialize() const;
  static Result<InvertedIndex> Deserialize(const std::string& data);

 private:
  struct TermList {
    uint32_t doc_count = 0;
    DocId last_doc = 0;  ///< highest doc id in the blob (append cursor)
    std::string blob;    ///< varint records, ascending doc order
  };

  struct DecodedPosting {
    DocId doc;
    std::vector<uint32_t> positions;
  };

  /// One block of up to kBlockDocs consecutive postings of a term.
  /// [first, last] is the skip pointer; record_offset points at the block's
  /// first record in TermList::blob so position payloads can be decoded for
  /// exactly this block's docs without touching the rest of the list.
  struct PostingBlock {
    DocId first = 0;
    DocId last = 0;
    uint32_t count = 0;
    uint32_t record_offset = 0;
    bool dense = false;  ///< docs is a bitset over [first, last], else varints
    std::string docs;    ///< doc payload only — no positions
  };
  struct BlockIndex {
    std::vector<PostingBlock> blocks;
    /// Term frequency per doc, in list order across blocks — a sidecar
    /// captured during the build walk so ranking never re-skips the
    /// blob's position varints. Counted in `bytes`.
    std::vector<uint32_t> tf;
    size_t bytes = 0;       ///< docs + tf payload bytes across blocks
    size_t dense_count = 0; ///< how many blocks chose the bitset form
  };

  uint32_t InternTerm(const std::string& term);
  const TermList* FindList(const std::string& raw_term) const;
  /// Decodes a whole list; only the classic PhraseQuery needs positions of
  /// every posting at once.
  static std::vector<DecodedPosting> Decode(const TermList& list);
  static void AppendRecord(TermList* list, DocId doc,
                           const std::vector<uint32_t>& positions);

  /// Where doc \p id sits in a list: the first record whose doc is >= id,
  /// found by an allocation-free forward scan (deltas summed, positions
  /// varint-skipped). Not found means every doc is below id.
  struct RecordSlot {
    size_t begin = 0;    ///< blob offset of the record (blob end if none)
    size_t end = 0;      ///< blob offset just past it
    DocId prev = 0;      ///< doc of the record before it (0 for the first)
    DocId doc = 0;       ///< the record's doc (valid when found)
    uint32_t count = 0;  ///< the record's position count
    bool found = false;
  };
  static RecordSlot Seek(const TermList& list, DocId id);
  /// Splices doc \p id's record out of \p list, folding its delta into the
  /// successor's (or stepping last_doc back when it was the tail). Returns
  /// the removed position count, 0 when the doc is absent.
  static uint32_t EraseRecord(TermList* list, DocId id);
  /// Writes doc \p id's record: appended past last_doc, replaced in place
  /// when present, else spliced before its successor (whose delta is
  /// re-encoded). Returns the replaced record's position count, else 0.
  static uint32_t WriteRecord(TermList* list, DocId id,
                              const std::vector<uint32_t>& positions);

  static BlockIndex BuildBlocks(const TermList& list);
  static void AppendBlockDocs(const PostingBlock& block,
                              std::vector<DocId>* out);
  /// Lazily builds (and caches) the block index of term id \p tid.
  const BlockIndex* BlockedFor(uint32_t tid) const;
  void DropBlocks(uint32_t tid);
  /// Streaming position reader over one term's blob: Advance() moves
  /// forward-only through the record stream (docs must be requested in
  /// ascending order), decoding each record at most once and skipping
  /// whole blocks the target is past. Positions are decoded only for the
  /// requested doc; every other record's are varint-skipped.
  struct PositionCursor {
    const TermList* list = nullptr;
    const BlockIndex* blocks = nullptr;
    size_t block = 0;      ///< index into blocks->blocks
    uint32_t record = 0;   ///< records consumed in the current block
    size_t pos = 0;        ///< blob offset of the next record
    DocId current = 0;     ///< last decoded doc (valid when decoded)
    bool entered = false;  ///< pos/record primed for blocks[block]
    bool decoded = false;  ///< current holds a decoded doc

    /// Positions of \p doc, or false when the doc is not in the list (or
    /// the cursor has already streamed past it).
    bool Advance(DocId doc, std::vector<uint32_t>* out);
  };
  /// acc ∩ term-docs via block-range skipping; counts skipped blocks.
  std::vector<DocId> IntersectWithBlocks(const std::vector<DocId>& acc,
                                         const BlockIndex& blocks) const;

  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<TermList> lists_;
  // doc -> term ids it contributed (for removal/replacement).
  std::unordered_map<DocId, std::vector<uint32_t>> doc_terms_;
  uint64_t total_tokens_ = 0;

  /// Lazily built block indexes, keyed by term id. The mutex serializes
  /// concurrent readers racing to build the same term; mutations (which
  /// never run concurrently with queries) drop entries for changed terms.
  mutable std::mutex blocks_mu_;
  mutable std::unordered_map<uint32_t, std::unique_ptr<BlockIndex>> blocks_;
  mutable std::atomic<uint64_t> blocks_built_{0};
  mutable std::atomic<uint64_t> blocks_skipped_{0};
};

}  // namespace idm::index

#endif  // IDM_INDEX_INVERTED_INDEX_H_
