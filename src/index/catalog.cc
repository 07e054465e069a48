#include "index/catalog.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/codec.h"

namespace idm::index {

namespace {

using codec::GetString;
using codec::GetU32;
using codec::GetU64;
using codec::PutString;
using codec::PutU32;
using codec::PutU64;

constexpr uint64_t kMagic = 0x69444D3143415431ULL;  // "iDM1CAT1"
// Format history: v1 had no version field (the magic was followed directly
// by the source table) and its reader accepted images whose length fields
// overflowed `pos + len`. v2 adds this explicit version header; the codec
// readers are overflow-safe.
constexpr uint32_t kCatalogFormatVersion = 2;

}  // namespace

Catalog::Catalog()
    : live_ids_(std::make_shared<const std::vector<DocId>>()) {}

Catalog::Catalog(Catalog&& other) noexcept : Catalog() {
  *this = std::move(other);
}

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(live_mu_, other.live_mu_);
  entries_ = std::exchange(other.entries_, {});
  by_uri_ = std::exchange(other.by_uri_, {});
  sources_ = std::exchange(other.sources_, {});
  live_count_ = std::exchange(other.live_count_, 0);
  class_names_ = std::exchange(other.class_names_, {});
  class_by_name_ = std::exchange(other.class_by_name_, {});
  class_ids_ = std::exchange(other.class_ids_, {});
  live_ids_ = std::exchange(other.live_ids_,
                            std::make_shared<const std::vector<DocId>>());
  folded_end_ = std::exchange(other.folded_end_, 0);
  touched_ = std::exchange(other.touched_, {});
  return *this;
}

uint32_t Catalog::InternClass(std::string_view class_name) {
  auto it = class_by_name_.find(class_name);
  if (it != class_by_name_.end()) return it->second;
  const auto id = static_cast<uint32_t>(class_names_.size());
  class_by_name_.emplace(class_names_.emplace_back(class_name), id);
  return id;
}

uint32_t Catalog::InternSource(const std::string& source_name) {
  for (uint32_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i] == source_name) return i;
  }
  sources_.push_back(source_name);
  return static_cast<uint32_t>(sources_.size() - 1);
}

const std::string& Catalog::SourceName(uint32_t source) const {
  static const std::string kUnknown = "<unknown>";
  return source < sources_.size() ? sources_[source] : kUnknown;
}

DocId Catalog::Register(const std::string& uri, const std::string& class_name,
                        uint32_t source, bool derived) {
  const uint32_t class_id = InternClass(class_name);
  std::lock_guard<std::mutex> lock(live_mu_);
  auto it = by_uri_.find(uri);
  if (it != by_uri_.end()) {
    CatalogEntry& entry = entries_[it->second];
    if (entry.deleted) {
      entry.deleted = false;
      ++live_count_;
      if (it->second < folded_end_) touched_.push_back(it->second);
    }
    entry.class_name = class_names_[class_id];
    entry.source = source;
    entry.derived = derived;
    class_ids_[it->second] = class_id;
    return it->second;
  }
  DocId id = entries_.size();
  entries_.push_back({uri, class_names_[class_id], source, derived, false});
  by_uri_.emplace(std::string_view(entries_.back().uri), id);
  class_ids_.push_back(class_id);
  ++live_count_;
  return id;
}

std::optional<DocId> Catalog::Find(const std::string& uri) const {
  auto it = by_uri_.find(std::string_view(uri));
  if (it == by_uri_.end() || entries_[it->second].deleted) return std::nullopt;
  return it->second;
}

const CatalogEntry* Catalog::Entry(DocId id) const {
  return id < entries_.size() ? &entries_[id] : nullptr;
}

void Catalog::Remove(DocId id) {
  std::lock_guard<std::mutex> lock(live_mu_);
  if (id < entries_.size() && !entries_[id].deleted) {
    entries_[id].deleted = true;
    --live_count_;
    if (id < folded_end_) touched_.push_back(id);
  }
}

void Catalog::FoldLocked() const {
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  // One merge pass: every untouched id keeps its place; a touched id, and
  // every id registered since the last fold (appended after the merge), is
  // live iff its entry says so now, whatever happened in between.
  const std::vector<DocId>& old_ids = *live_ids_;
  auto next = std::make_shared<std::vector<DocId>>();
  next->reserve(live_count_);
  auto old_it = old_ids.begin();
  for (DocId id : touched_) {
    while (old_it != old_ids.end() && *old_it < id) next->push_back(*old_it++);
    if (old_it != old_ids.end() && *old_it == id) ++old_it;
    if (!entries_[id].deleted) next->push_back(id);
  }
  next->insert(next->end(), old_it, old_ids.end());
  for (DocId id = folded_end_; id < entries_.size(); ++id) {
    if (!entries_[id].deleted) next->push_back(id);
  }
  live_ids_ = std::move(next);
  folded_end_ = entries_.size();
  touched_.clear();
}

std::shared_ptr<const std::vector<DocId>> Catalog::LiveSnapshot() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  if (!touched_.empty() || folded_end_ != entries_.size()) FoldLocked();
  return live_ids_;
}

std::vector<DocId> Catalog::LiveIds() const { return *LiveSnapshot(); }

void Catalog::CountBySource(uint32_t source, size_t* base,
                            size_t* derived) const {
  *base = 0;
  *derived = 0;
  for (const CatalogEntry& entry : entries_) {
    if (entry.deleted || entry.source != source) continue;
    if (entry.derived) {
      ++*derived;
    } else {
      ++*base;
    }
  }
}

size_t Catalog::MemoryUsage() const {
  size_t total = 0;
  for (const CatalogEntry& entry : entries_) {
    total += sizeof(entry) + entry.uri.capacity();
  }
  // by_uri_ keys are views into entries_; count bucket overhead only.
  total += by_uri_.size() * (sizeof(std::string_view) + sizeof(DocId) + 16);
  for (const std::string& s : sources_) total += sizeof(s) + s.capacity();
  for (const std::string& s : class_names_) {
    total += sizeof(s) + s.capacity() +
             sizeof(std::string_view) + sizeof(uint32_t) + 16;  // map entry
  }
  total += class_ids_.capacity() * sizeof(uint32_t);
  std::lock_guard<std::mutex> lock(live_mu_);
  total += live_ids_->capacity() * sizeof(DocId) +
           touched_.capacity() * sizeof(DocId);
  return total;
}

std::string Catalog::Serialize() const {
  std::string out;
  PutU64(&out, kMagic);
  PutU32(&out, kCatalogFormatVersion);
  PutU64(&out, sources_.size());
  for (const std::string& s : sources_) PutString(&out, s);
  PutU64(&out, entries_.size());
  for (const CatalogEntry& entry : entries_) {
    PutString(&out, entry.uri);
    PutString(&out, entry.class_name);
    PutU64(&out, entry.source);
    PutU64(&out, (entry.derived ? 1u : 0u) | (entry.deleted ? 2u : 0u));
  }
  return out;
}

Result<Catalog> Catalog::Deserialize(const std::string& data) {
  size_t pos = 0;
  uint64_t magic = 0;
  if (!GetU64(data, &pos, &magic) || magic != kMagic) {
    return Status::ParseError("not a serialized catalog");
  }
  uint32_t version = 0;
  if (!GetU32(data, &pos, &version)) {
    return Status::ParseError("truncated catalog header");
  }
  if (version != kCatalogFormatVersion) {
    return Status::ParseError("unsupported catalog format version " +
                              std::to_string(version));
  }
  Catalog catalog;
  uint64_t n_sources = 0;
  if (!GetU64(data, &pos, &n_sources)) return Status::ParseError("truncated");
  for (uint64_t i = 0; i < n_sources; ++i) {
    std::string s;
    if (!GetString(data, &pos, &s)) return Status::ParseError("truncated");
    catalog.sources_.push_back(std::move(s));
  }
  uint64_t n_entries = 0;
  if (!GetU64(data, &pos, &n_entries)) return Status::ParseError("truncated");
  for (uint64_t i = 0; i < n_entries; ++i) {
    CatalogEntry entry;
    std::string class_name;
    uint64_t source = 0, flags = 0;
    if (!GetString(data, &pos, &entry.uri) ||
        !GetString(data, &pos, &class_name) ||
        !GetU64(data, &pos, &source) || !GetU64(data, &pos, &flags)) {
      return Status::ParseError("truncated entry");
    }
    if (source >= catalog.sources_.size()) {
      return Status::ParseError("entry references unknown source id");
    }
    if ((flags & ~3ULL) != 0) {
      return Status::ParseError("entry carries unknown flags");
    }
    entry.source = static_cast<uint32_t>(source);
    entry.derived = (flags & 1) != 0;
    entry.deleted = (flags & 2) != 0;
    DocId id = catalog.entries_.size();
    if (!entry.deleted) ++catalog.live_count_;
    const uint32_t class_id = catalog.InternClass(class_name);
    entry.class_name = catalog.class_names_[class_id];
    catalog.class_ids_.push_back(class_id);
    catalog.entries_.push_back(std::move(entry));
    catalog.by_uri_.emplace(std::string_view(catalog.entries_.back().uri), id);
  }
  if (pos != data.size()) return Status::ParseError("trailing bytes");
  catalog.FoldLocked();  // not yet shared: no lock needed
  return catalog;
}

}  // namespace idm::index
