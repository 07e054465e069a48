#include "index/inverted_index.h"

#include <algorithm>

#include "index/analyzer.h"
#include "util/codec.h"

namespace idm::index {

namespace {

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

uint64_t GetVarint(const std::string& in, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < in.size()) {
    uint8_t byte = static_cast<uint8_t>(in[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

void SkipVarint(const std::string& in, size_t* pos) {
  while (*pos < in.size() && (static_cast<uint8_t>(in[(*pos)++]) & 0x80)) {
  }
}

/// One posting record: [doc delta, position count, position deltas...].
void PutRecord(std::string* out, uint64_t doc_delta,
               const std::vector<uint32_t>& positions) {
  PutVarint(out, doc_delta);
  PutVarint(out, positions.size());
  uint32_t prev = 0;
  for (uint32_t pos : positions) {
    PutVarint(out, pos - prev);
    prev = pos;
  }
}

/// Postings per block: small enough that decoding one block for phrase
/// verification is cheap, large enough that skip pointers pay off.
constexpr uint32_t kBlockDocs = 128;

}  // namespace

void InvertedIndex::AppendRecord(TermList* list, DocId doc,
                                 const std::vector<uint32_t>& positions) {
  PutRecord(&list->blob, doc - (list->doc_count == 0 ? 0 : list->last_doc),
            positions);
  list->last_doc = doc;
  ++list->doc_count;
}

InvertedIndex::RecordSlot InvertedIndex::Seek(const TermList& list,
                                              DocId id) {
  RecordSlot slot;
  size_t pos = 0;
  for (uint32_t i = 0; i < list.doc_count; ++i) {
    size_t begin = pos;
    DocId doc = slot.prev + GetVarint(list.blob, &pos);
    uint64_t count = GetVarint(list.blob, &pos);
    for (uint64_t j = 0; j < count; ++j) SkipVarint(list.blob, &pos);
    if (doc >= id) {
      slot.begin = begin;
      slot.end = pos;
      slot.doc = doc;
      slot.count = static_cast<uint32_t>(count);
      slot.found = true;
      return slot;
    }
    slot.prev = doc;
  }
  slot.begin = slot.end = list.blob.size();
  return slot;
}

uint32_t InvertedIndex::EraseRecord(TermList* list, DocId id) {
  RecordSlot slot = Seek(*list, id);
  if (!slot.found || slot.doc != id) return 0;
  std::string& blob = list->blob;
  if (slot.end == blob.size()) {
    // The tail: the append cursor steps back to the predecessor (0 when
    // the list empties, as the first record's delta is relative to 0).
    blob.erase(slot.begin);
    list->last_doc = slot.prev;
  } else {
    // The successor's delta absorbs the erased record's.
    size_t next_end = slot.end;
    uint64_t next_delta = GetVarint(blob, &next_end);
    std::string merged;
    PutVarint(&merged, slot.doc - slot.prev + next_delta);
    blob.replace(slot.begin, next_end - slot.begin, merged);
  }
  --list->doc_count;
  return slot.count;
}

uint32_t InvertedIndex::WriteRecord(TermList* list, DocId id,
                                    const std::vector<uint32_t>& positions) {
  if (list->doc_count == 0 || list->last_doc < id) {
    AppendRecord(list, id, positions);  // fast path: in-order append
    return 0;
  }
  RecordSlot slot = Seek(*list, id);
  std::string record;
  PutRecord(&record, id - slot.prev, positions);
  if (slot.doc == id) {
    // Present: the record is replaced; its delta and the successor's stay.
    list->blob.replace(slot.begin, slot.end - slot.begin, record);
    return slot.count;
  }
  // Spliced before its successor, whose delta now starts from id.
  PutVarint(&record, slot.doc - id);
  size_t delta_end = slot.begin;
  SkipVarint(list->blob, &delta_end);
  list->blob.replace(slot.begin, delta_end - slot.begin, record);
  ++list->doc_count;
  return 0;
}

std::vector<InvertedIndex::DecodedPosting> InvertedIndex::Decode(
    const TermList& list) {
  std::vector<DecodedPosting> out;
  out.reserve(list.doc_count);
  size_t pos = 0;
  DocId doc = 0;
  for (uint32_t i = 0; i < list.doc_count; ++i) {
    doc += GetVarint(list.blob, &pos);
    uint64_t count = GetVarint(list.blob, &pos);
    DecodedPosting posting;
    posting.doc = doc;
    posting.positions.reserve(count);
    uint32_t position = 0;
    for (uint64_t j = 0; j < count; ++j) {
      position += static_cast<uint32_t>(GetVarint(list.blob, &pos));
      posting.positions.push_back(position);
    }
    out.push_back(std::move(posting));
  }
  return out;
}

uint32_t InvertedIndex::InternTerm(const std::string& term) {
  auto it = term_ids_.find(term);
  if (it != term_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(lists_.size());
  term_ids_.emplace(term, id);
  lists_.emplace_back();
  return id;
}

const InvertedIndex::TermList* InvertedIndex::FindList(
    const std::string& raw_term) const {
  auto it = term_ids_.find(raw_term);
  return it == term_ids_.end() ? nullptr : &lists_[it->second];
}

InvertedIndex::InvertedIndex(const InvertedIndex& other)
    : term_ids_(other.term_ids_),
      lists_(other.lists_),
      doc_terms_(other.doc_terms_),
      total_tokens_(other.total_tokens_) {}

InvertedIndex& InvertedIndex::operator=(const InvertedIndex& other) {
  if (this == &other) return *this;
  term_ids_ = other.term_ids_;
  lists_ = other.lists_;
  doc_terms_ = other.doc_terms_;
  total_tokens_ = other.total_tokens_;
  std::lock_guard<std::mutex> lock(blocks_mu_);
  blocks_.clear();
  return *this;
}

InvertedIndex::InvertedIndex(InvertedIndex&& other) noexcept
    : term_ids_(std::move(other.term_ids_)),
      lists_(std::move(other.lists_)),
      doc_terms_(std::move(other.doc_terms_)),
      total_tokens_(other.total_tokens_) {}

InvertedIndex& InvertedIndex::operator=(InvertedIndex&& other) noexcept {
  if (this == &other) return *this;
  term_ids_ = std::move(other.term_ids_);
  lists_ = std::move(other.lists_);
  doc_terms_ = std::move(other.doc_terms_);
  total_tokens_ = other.total_tokens_;
  std::lock_guard<std::mutex> lock(blocks_mu_);
  blocks_.clear();
  return *this;
}

void InvertedIndex::DropBlocks(uint32_t tid) {
  std::lock_guard<std::mutex> lock(blocks_mu_);
  blocks_.erase(tid);
}

void InvertedIndex::AddDocument(DocId id, const std::string& text) {
  std::vector<Token> tokens = Tokenize(text);
  // Group positions per term (tokens arrive in position order).
  std::unordered_map<std::string, std::vector<uint32_t>> term_positions;
  for (Token& token : tokens) {
    term_positions[std::move(token.term)].push_back(token.position);
  }
  // New terms are interned in the map's iteration order (term ids are part
  // of the serialized image), then visited in term-id order.
  std::vector<std::pair<uint32_t, const std::vector<uint32_t>*>> postings;
  postings.reserve(term_positions.size());
  for (const auto& [term, positions] : term_positions) {
    postings.emplace_back(InternTerm(term), &positions);
  }
  std::sort(postings.begin(), postings.end());

  // Re-adding an id: terms only in the old text lose the doc's record (a
  // merge of the two sorted term-id lists); the rest are rewritten below.
  std::vector<uint32_t>& doc_terms = doc_terms_[id];
  auto next = postings.begin();
  for (uint32_t tid : doc_terms) {
    while (next != postings.end() && next->first < tid) ++next;
    if (next != postings.end() && next->first == tid) continue;
    total_tokens_ -= EraseRecord(&lists_[tid], id);
    DropBlocks(tid);
  }

  total_tokens_ += tokens.size();
  std::vector<uint32_t> term_ids;
  term_ids.reserve(postings.size());
  for (const auto& [tid, positions] : postings) {
    total_tokens_ -= WriteRecord(&lists_[tid], id, *positions);
    DropBlocks(tid);
    term_ids.push_back(tid);
  }
  doc_terms = std::move(term_ids);
}

void InvertedIndex::RemoveDocument(DocId id) {
  auto it = doc_terms_.find(id);
  if (it == doc_terms_.end()) return;
  for (uint32_t tid : it->second) {
    total_tokens_ -= EraseRecord(&lists_[tid], id);
    DropBlocks(tid);
  }
  doc_terms_.erase(it);
}

std::vector<DocId> InvertedIndex::TermQuery(const std::string& term,
                                            util::ExecContext* ctx) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return AndQuery(normalized, ctx);
  const TermList* list = FindList(normalized[0]);
  if (list == nullptr) return {};
  std::vector<DocId> out;
  out.reserve(list->doc_count);
  size_t pos = 0;
  DocId doc = 0;
  for (uint32_t i = 0; i < list->doc_count; ++i) {
    if (ctx != nullptr && !ctx->TickAlive()) break;  // one step per posting
    doc += GetVarint(list->blob, &pos);
    uint64_t count = GetVarint(list->blob, &pos);
    for (uint64_t j = 0; j < count; ++j) GetVarint(list->blob, &pos);
    out.push_back(doc);
  }
  return out;
}

std::vector<std::pair<DocId, uint32_t>> InvertedIndex::TermQueryWithTf(
    const std::string& term, util::ExecContext* ctx) const {
  std::vector<std::pair<DocId, uint32_t>> out;
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return out;  // single terms only
  const TermList* list = FindList(normalized[0]);
  if (list == nullptr) return out;
  out.reserve(list->doc_count);
  size_t pos = 0;
  DocId doc = 0;
  for (uint32_t i = 0; i < list->doc_count; ++i) {
    if (ctx != nullptr && !ctx->TickAlive()) break;
    doc += GetVarint(list->blob, &pos);
    uint64_t count = GetVarint(list->blob, &pos);
    for (uint64_t j = 0; j < count; ++j) GetVarint(list->blob, &pos);
    out.emplace_back(doc, static_cast<uint32_t>(count));
  }
  return out;
}

size_t InvertedIndex::DocumentFrequency(const std::string& term) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return 0;
  const TermList* list = FindList(normalized[0]);
  return list == nullptr ? 0 : list->doc_count;
}

std::vector<DocId> InvertedIndex::AndQuery(
    const std::vector<std::string>& terms, util::ExecContext* ctx) const {
  if (terms.empty()) return {};
  std::vector<DocId> acc = TermQuery(terms[0], ctx);
  for (size_t i = 1; i < terms.size() && !acc.empty(); ++i) {
    if (ctx != nullptr && ctx->doomed()) break;
    std::vector<DocId> next = TermQuery(terms[i], ctx);
    std::vector<DocId> merged;
    std::set_intersection(acc.begin(), acc.end(), next.begin(), next.end(),
                          std::back_inserter(merged));
    acc = std::move(merged);
  }
  return acc;
}

std::vector<DocId> InvertedIndex::OrQuery(const std::vector<std::string>& terms,
                                          util::ExecContext* ctx) const {
  std::vector<DocId> acc;
  for (const std::string& term : terms) {
    if (ctx != nullptr && ctx->doomed()) break;
    std::vector<DocId> next = TermQuery(term, ctx);
    std::vector<DocId> merged;
    std::set_union(acc.begin(), acc.end(), next.begin(), next.end(),
                   std::back_inserter(merged));
    acc = std::move(merged);
  }
  return acc;
}

std::vector<DocId> InvertedIndex::PhraseQuery(const std::string& phrase,
                                              util::ExecContext* ctx) const {
  std::vector<std::string> terms = PhraseTerms(phrase);
  if (terms.empty()) return {};
  if (terms.size() == 1) return TermQuery(terms[0], ctx);

  std::vector<std::vector<DecodedPosting>> decoded;
  decoded.reserve(terms.size());
  for (const std::string& term : terms) {
    const TermList* list = FindList(term);
    if (list == nullptr) return {};  // a missing term kills the phrase
    decoded.push_back(Decode(*list));
  }

  auto find_doc = [](const std::vector<DecodedPosting>& postings,
                     DocId id) -> const std::vector<uint32_t>* {
    auto it = std::lower_bound(
        postings.begin(), postings.end(), id,
        [](const DecodedPosting& p, DocId d) { return p.doc < d; });
    return (it != postings.end() && it->doc == id) ? &it->positions : nullptr;
  };

  std::vector<DocId> out;
  for (const DecodedPosting& first : decoded[0]) {
    if (ctx != nullptr && !ctx->TickAlive()) break;
    bool all_present = true;
    for (size_t k = 1; k < decoded.size() && all_present; ++k) {
      all_present = find_doc(decoded[k], first.doc) != nullptr;
    }
    if (!all_present) continue;
    bool matched = false;
    for (uint32_t start : first.positions) {
      bool consecutive = true;
      for (size_t k = 1; k < decoded.size(); ++k) {
        const std::vector<uint32_t>* positions = find_doc(decoded[k], first.doc);
        if (!std::binary_search(positions->begin(), positions->end(),
                                start + static_cast<uint32_t>(k))) {
          consecutive = false;
          break;
        }
      }
      if (consecutive) {
        matched = true;
        break;
      }
    }
    if (matched) out.push_back(first.doc);
  }
  return out;
}

namespace {
constexpr uint64_t kContentMagic = 0x69444D31434E5431ULL;  // "iDM1CNT1"
constexpr uint32_t kContentFormatVersion = 1;
}  // namespace

std::string InvertedIndex::Serialize() const {
  std::string out;
  codec::PutU64(&out, kContentMagic);
  codec::PutU32(&out, kContentFormatVersion);
  codec::PutU64(&out, total_tokens_);
  // Term dictionary + posting blobs, sorted by term text so the image is
  // independent of hash-map iteration order. Term ids are preserved: the
  // blobs do not reference them, but doc_terms_ does.
  std::vector<const std::pair<const std::string, uint32_t>*> terms;
  terms.reserve(term_ids_.size());
  for (const auto& entry : term_ids_) terms.push_back(&entry);
  std::sort(terms.begin(), terms.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  codec::PutU64(&out, terms.size());
  for (const auto* entry : terms) {
    const TermList& list = lists_[entry->second];
    codec::PutString(&out, entry->first);
    codec::PutU32(&out, entry->second);
    codec::PutU32(&out, list.doc_count);
    codec::PutU64(&out, list.last_doc);
    codec::PutString(&out, list.blob);
  }
  std::vector<DocId> docs;
  docs.reserve(doc_terms_.size());
  for (const auto& [doc, term_list] : doc_terms_) docs.push_back(doc);
  std::sort(docs.begin(), docs.end());
  codec::PutU64(&out, docs.size());
  for (DocId doc : docs) {
    const std::vector<uint32_t>& term_list = doc_terms_.at(doc);
    codec::PutU64(&out, doc);
    codec::PutU64(&out, term_list.size());
    for (uint32_t term : term_list) codec::PutU32(&out, term);
  }
  return out;
}

Result<InvertedIndex> InvertedIndex::Deserialize(const std::string& data) {
  size_t pos = 0;
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!codec::GetU64(data, &pos, &magic) || magic != kContentMagic) {
    return Status::ParseError("not a serialized content index");
  }
  if (!codec::GetU32(data, &pos, &version) ||
      version != kContentFormatVersion) {
    return Status::ParseError("unsupported content index format version");
  }
  InvertedIndex index;
  uint64_t n_terms = 0;
  if (!codec::GetU64(data, &pos, &index.total_tokens_) ||
      !codec::GetU64(data, &pos, &n_terms)) {
    return Status::ParseError("truncated content index");
  }
  if (n_terms > (data.size() - pos) / 24) {
    return Status::ParseError("truncated term table");
  }
  index.lists_.resize(n_terms);
  std::vector<bool> seen(n_terms, false);
  for (uint64_t i = 0; i < n_terms; ++i) {
    std::string term;
    uint32_t term_id = 0;
    TermList list;
    if (!codec::GetString(data, &pos, &term) ||
        !codec::GetU32(data, &pos, &term_id) ||
        !codec::GetU32(data, &pos, &list.doc_count) ||
        !codec::GetU64(data, &pos, &list.last_doc) ||
        !codec::GetString(data, &pos, &list.blob)) {
      return Status::ParseError("truncated term entry");
    }
    if (term_id >= n_terms || seen[term_id]) {
      return Status::ParseError("invalid term id");
    }
    seen[term_id] = true;
    index.lists_[term_id] = std::move(list);
    index.term_ids_.emplace(std::move(term), term_id);
  }
  uint64_t n_docs = 0;
  if (!codec::GetU64(data, &pos, &n_docs)) {
    return Status::ParseError("truncated doc table");
  }
  for (uint64_t i = 0; i < n_docs; ++i) {
    uint64_t doc = 0, n = 0;
    if (!codec::GetU64(data, &pos, &doc) || !codec::GetU64(data, &pos, &n)) {
      return Status::ParseError("truncated doc entry");
    }
    if (n > (data.size() - pos) / 4) {
      return Status::ParseError("truncated doc term list");
    }
    std::vector<uint32_t> term_list;
    term_list.reserve(n);
    for (uint64_t t = 0; t < n; ++t) {
      uint32_t term = 0;
      if (!codec::GetU32(data, &pos, &term)) {
        return Status::ParseError("truncated doc term list");
      }
      if (term >= n_terms) return Status::ParseError("invalid doc term id");
      term_list.push_back(term);
    }
    index.doc_terms_.emplace(doc, std::move(term_list));
  }
  if (pos != data.size()) return Status::ParseError("trailing bytes");
  return index;
}

// --- blocked query path ----------------------------------------------------

InvertedIndex::BlockIndex InvertedIndex::BuildBlocks(const TermList& list) {
  BlockIndex index;
  if (list.doc_count == 0) return index;
  index.blocks.reserve((list.doc_count + kBlockDocs - 1) / kBlockDocs);

  std::vector<DocId> run;
  run.reserve(kBlockDocs);
  size_t run_offset = 0;

  auto flush = [&]() {
    if (run.empty()) return;
    PostingBlock block;
    block.first = run.front();
    block.last = run.back();
    block.count = static_cast<uint32_t>(run.size());
    block.record_offset = static_cast<uint32_t>(run_offset);
    // Delta-varint form first; switch to a bitset when it is smaller (a
    // dense run of near-consecutive ids packs to one bit per slot).
    std::string varints;
    DocId prev = block.first;
    for (size_t i = 1; i < run.size(); ++i) {
      PutVarint(&varints, run[i] - prev);
      prev = run[i];
    }
    const uint64_t span = block.last - block.first + 1;
    const size_t bitset_bytes = static_cast<size_t>((span + 7) / 8);
    if (bitset_bytes < varints.size()) {
      block.dense = true;
      block.docs.assign(bitset_bytes, '\0');
      for (DocId doc : run) {
        uint64_t bit = doc - block.first;
        block.docs[bit >> 3] |= static_cast<char>(1u << (bit & 7));
      }
      ++index.dense_count;
    } else {
      block.docs = std::move(varints);
    }
    index.bytes += block.docs.size();
    index.blocks.push_back(std::move(block));
    run.clear();
  };

  size_t pos = 0;
  DocId doc = 0;
  index.tf.reserve(list.doc_count);
  for (uint32_t i = 0; i < list.doc_count; ++i) {
    size_t record_start = pos;
    doc += GetVarint(list.blob, &pos);
    uint64_t count = GetVarint(list.blob, &pos);
    for (uint64_t j = 0; j < count; ++j) GetVarint(list.blob, &pos);
    if (run.empty()) run_offset = record_start;
    run.push_back(doc);
    index.tf.push_back(static_cast<uint32_t>(count));
    if (run.size() == kBlockDocs) flush();
  }
  flush();
  index.bytes += index.tf.size() * sizeof(uint32_t);
  return index;
}

void InvertedIndex::AppendBlockDocs(const PostingBlock& block,
                                    std::vector<DocId>* out) {
  if (block.dense) {
    for (size_t byte = 0; byte < block.docs.size(); ++byte) {
      uint8_t bits = static_cast<uint8_t>(block.docs[byte]);
      while (bits != 0) {
        int bit = __builtin_ctz(bits);
        out->push_back(block.first + (byte << 3) + bit);
        bits &= bits - 1;
      }
    }
    return;
  }
  DocId doc = block.first;
  out->push_back(doc);
  size_t pos = 0;
  for (uint32_t i = 1; i < block.count; ++i) {
    doc += GetVarint(block.docs, &pos);
    out->push_back(doc);
  }
}

const InvertedIndex::BlockIndex* InvertedIndex::BlockedFor(
    uint32_t tid) const {
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    auto it = blocks_.find(tid);
    if (it != blocks_.end()) return it->second.get();
  }
  auto built = std::make_unique<BlockIndex>(BuildBlocks(lists_[tid]));
  std::lock_guard<std::mutex> lock(blocks_mu_);
  auto [it, inserted] = blocks_.emplace(tid, std::move(built));
  if (inserted) blocks_built_.fetch_add(1, std::memory_order_relaxed);
  return it->second.get();
}

bool InvertedIndex::PositionCursor::Advance(DocId doc,
                                            std::vector<uint32_t>* out) {
  const std::vector<PostingBlock>& skip = blocks->blocks;
  while (block < skip.size() && skip[block].last < doc) {
    ++block;
    entered = false;
  }
  if (block >= skip.size()) return false;
  const PostingBlock& here = skip[block];
  if (doc < here.first) return false;
  if (!entered) {
    // The skip pointer bounds the decode to this block's records.
    pos = here.record_offset;
    record = 0;
    entered = true;
    decoded = false;
  }
  // A record already streamed past the target means the doc is absent.
  if (decoded && current >= doc) return false;
  while (record < here.count) {
    DocId delta = GetVarint(list->blob, &pos);
    // Doc deltas are relative to the PREVIOUS record, which for the
    // block's first record lives outside the block; its absolute id is
    // the skip entry's `first`.
    current = (record == 0) ? here.first : current + delta;
    ++record;
    decoded = true;
    uint64_t count = GetVarint(list->blob, &pos);
    if (current == doc) {
      out->clear();
      out->reserve(count);
      uint32_t position = 0;
      for (uint64_t j = 0; j < count; ++j) {
        position += static_cast<uint32_t>(GetVarint(list->blob, &pos));
        out->push_back(position);
      }
      return true;
    }
    for (uint64_t j = 0; j < count; ++j) GetVarint(list->blob, &pos);
    if (current > doc) return false;
  }
  return false;
}

std::vector<DocId> InvertedIndex::IntersectWithBlocks(
    const std::vector<DocId>& acc, const BlockIndex& blocks) const {
  std::vector<DocId> out;
  if (acc.empty() || blocks.blocks.empty()) return out;
  std::vector<DocId> scratch;
  auto acc_it = acc.begin();
  for (const PostingBlock& block : blocks.blocks) {
    // Skip pointers: fast-forward past blocks wholly below the accumulator
    // cursor and stop once blocks start past its end.
    if (block.last < *acc_it) {
      blocks_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (block.first > acc.back()) {
      blocks_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    scratch.clear();
    AppendBlockDocs(block, &scratch);
    auto lo = std::lower_bound(acc_it, acc.end(), block.first);
    auto hi = std::upper_bound(lo, acc.end(), block.last);
    std::set_intersection(lo, hi, scratch.begin(), scratch.end(),
                          std::back_inserter(out));
    acc_it = hi;
    if (acc_it == acc.end()) break;
  }
  return out;
}

std::vector<DocId> InvertedIndex::TermDocs(const std::string& term) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return AndDocs(normalized);
  auto it = term_ids_.find(normalized[0]);
  if (it == term_ids_.end()) return {};
  const BlockIndex* blocks = BlockedFor(it->second);
  std::vector<DocId> out;
  out.reserve(lists_[it->second].doc_count);
  for (const PostingBlock& block : blocks->blocks) AppendBlockDocs(block, &out);
  return out;
}

std::vector<std::pair<DocId, uint32_t>> InvertedIndex::TermTfDocs(
    const std::string& term) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return {};  // single terms only
  auto it = term_ids_.find(normalized[0]);
  if (it == term_ids_.end()) return {};
  const BlockIndex* blocks = BlockedFor(it->second);
  std::vector<DocId> docs;
  docs.reserve(lists_[it->second].doc_count);
  for (const PostingBlock& block : blocks->blocks) AppendBlockDocs(block, &docs);
  std::vector<std::pair<DocId, uint32_t>> out;
  out.reserve(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    out.emplace_back(docs[i], blocks->tf[i]);
  }
  return out;
}

std::vector<DocId> InvertedIndex::AndDocs(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) return {};
  // Resolve all terms first (a missing term empties the intersection),
  // then fold starting from the rarest list — the accumulator can only
  // shrink, so the block-skip intersection does the least possible work.
  std::vector<uint32_t> tids;
  tids.reserve(terms.size());
  for (const std::string& term : terms) {
    for (const std::string& token : PhraseTerms(term)) {
      auto it = term_ids_.find(token);
      if (it == term_ids_.end()) return {};
      tids.push_back(it->second);
    }
  }
  if (tids.empty()) return {};
  std::sort(tids.begin(), tids.end(), [this](uint32_t a, uint32_t b) {
    return lists_[a].doc_count < lists_[b].doc_count;
  });
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  std::vector<DocId> acc;
  const BlockIndex* first = BlockedFor(tids[0]);
  acc.reserve(lists_[tids[0]].doc_count);
  for (const PostingBlock& block : first->blocks) AppendBlockDocs(block, &acc);
  for (size_t i = 1; i < tids.size() && !acc.empty(); ++i) {
    acc = IntersectWithBlocks(acc, *BlockedFor(tids[i]));
  }
  return acc;
}

std::vector<DocId> InvertedIndex::PhraseDocs(const std::string& phrase) const {
  std::vector<std::string> terms = PhraseTerms(phrase);
  if (terms.empty()) return {};
  if (terms.size() == 1) return TermDocs(terms[0]);

  std::vector<uint32_t> tids;
  tids.reserve(terms.size());
  for (const std::string& term : terms) {
    auto it = term_ids_.find(term);
    if (it == term_ids_.end()) return {};  // a missing term kills the phrase
    tids.push_back(it->second);
  }

  // Candidate docs: block-skip intersection of all term doc sets, rarest
  // first. Only the survivors ever have positions decoded — the classic
  // PhraseQuery decodes every position of every term up front.
  std::vector<DocId> candidates = AndDocs(terms);
  if (candidates.empty()) return candidates;

  // One forward-only cursor per term: candidates are sorted, so each
  // record in each list is decoded at most once across the whole phrase.
  std::vector<PositionCursor> cursors(tids.size());
  for (size_t k = 0; k < tids.size(); ++k) {
    cursors[k].list = &lists_[tids[k]];
    cursors[k].blocks = BlockedFor(tids[k]);
  }
  std::vector<std::vector<uint32_t>> positions(tids.size());
  std::vector<DocId> out;
  for (DocId doc : candidates) {
    bool have_all = true;
    for (size_t k = 0; k < tids.size() && have_all; ++k) {
      have_all = cursors[k].Advance(doc, &positions[k]);
    }
    if (!have_all) continue;  // defensive: candidates came from these lists
    bool matched = false;
    for (uint32_t start : positions[0]) {
      bool consecutive = true;
      for (size_t k = 1; k < tids.size(); ++k) {
        if (!std::binary_search(positions[k].begin(), positions[k].end(),
                                start + static_cast<uint32_t>(k))) {
          consecutive = false;
          break;
        }
      }
      if (consecutive) {
        matched = true;
        break;
      }
    }
    if (matched) out.push_back(doc);
  }
  return out;
}

InvertedIndex::BlockStats InvertedIndex::block_stats() const {
  BlockStats stats;
  stats.built_lists = blocks_built_.load(std::memory_order_relaxed);
  stats.skipped_blocks = blocks_skipped_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(blocks_mu_);
  for (const auto& [tid, index] : blocks_) {
    stats.block_bytes += index->bytes;
    stats.bitset_blocks += index->dense_count;
    stats.varint_blocks += index->blocks.size() - index->dense_count;
  }
  return stats;
}

size_t InvertedIndex::CompressedPostingsBytes() const {
  size_t total = 0;
  for (const TermList& list : lists_) total += list.blob.size();
  std::lock_guard<std::mutex> lock(blocks_mu_);
  for (const auto& [tid, index] : blocks_) {
    total += index->bytes + index->blocks.size() * sizeof(PostingBlock);
  }
  return total;
}

size_t InvertedIndex::UncompressedPostingsBytes() const {
  size_t postings = 0;
  for (const TermList& list : lists_) postings += list.doc_count;
  return postings * sizeof(DocId) +
         static_cast<size_t>(total_tokens_) * sizeof(uint32_t);
}

size_t InvertedIndex::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [term, tid] : term_ids_) {
    total += sizeof(tid) + sizeof(term) + term.capacity() + 16;  // bucket
  }
  for (const TermList& list : lists_) {
    total += sizeof(TermList) + list.blob.capacity();
  }
  for (const auto& [id, term_ids] : doc_terms_) {
    total += sizeof(id) + sizeof(term_ids) +
             term_ids.capacity() * sizeof(uint32_t) + 16;  // bucket
  }
  return total;
}

}  // namespace idm::index
