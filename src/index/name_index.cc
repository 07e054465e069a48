#include "index/name_index.h"

#include <algorithm>

#include "util/codec.h"
#include "util/string_util.h"

namespace idm::index {

namespace {

static_assert(NameIndex::kGram == 3, "GramAt packs three bytes");

uint32_t GramAt(std::string_view s, size_t i) {
  return static_cast<uint32_t>(static_cast<unsigned char>(s[i])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[i + 1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[i + 2]));
}

std::vector<uint32_t> DistinctGrams(std::string_view s) {
  std::vector<uint32_t> grams;
  for (size_t i = 0; i + NameIndex::kGram <= s.size(); ++i) {
    grams.push_back(GramAt(s, i));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

}  // namespace

void NameIndex::Add(DocId id, const std::string& name) {
  Remove(id);
  names_[id] = name;
  auto [it, inserted] = by_name_.try_emplace(ToLower(name));
  auto& ids = it->second;
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  if (inserted) IndexName(&*it);
}

void NameIndex::Remove(DocId id) {
  auto it = names_.find(id);
  if (it == names_.end()) return;
  auto key = ToLower(it->second);
  auto list_it = by_name_.find(key);
  if (list_it != by_name_.end()) {
    auto& ids = list_it->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), id);
    if (pos != ids.end() && *pos == id) ids.erase(pos);
    if (ids.empty()) {
      UnindexName(&*list_it);
      by_name_.erase(list_it);
    }
  }
  names_.erase(it);
}

void NameIndex::IndexName(const NameEntry* entry) {
  by_suffix_.insert(entry);
  for (uint32_t gram : DistinctGrams(entry->first)) {
    trigrams_[gram].push_back(entry);
  }
}

void NameIndex::UnindexName(const NameEntry* entry) {
  by_suffix_.erase(entry);
  for (uint32_t gram : DistinctGrams(entry->first)) {
    auto list_it = trigrams_.find(gram);
    if (list_it == trigrams_.end()) continue;
    auto& postings = list_it->second;
    auto pos = std::find(postings.begin(), postings.end(), entry);
    if (pos != postings.end()) {
      *pos = postings.back();
      postings.pop_back();
    }
    if (postings.empty()) trigrams_.erase(list_it);
  }
}

const NameIndex::NameEntryList* NameIndex::RarestTrigram(
    std::string_view pattern) const {
  static const NameEntryList kNone;
  const NameEntryList* best = nullptr;
  size_t run_start = 0;
  for (size_t i = 0; i <= pattern.size(); ++i) {
    if (i < pattern.size() && pattern[i] != '*' && pattern[i] != '?') continue;
    for (size_t g = run_start; g + kGram <= i; ++g) {
      auto it = trigrams_.find(GramAt(pattern, g));
      if (it == trigrams_.end()) return &kNone;  // no name has this literal
      if (best == nullptr || it->second.size() < best->size()) {
        best = &it->second;
      }
    }
    run_start = i + 1;
  }
  return best;
}

const std::string& NameIndex::NameOf(DocId id) const {
  static const std::string kEmpty;
  auto it = names_.find(id);
  return it == names_.end() ? kEmpty : it->second;
}

std::vector<DocId> NameIndex::Lookup(const std::string& name) const {
  auto it = by_name_.find(ToLower(name));
  return it == by_name_.end() ? std::vector<DocId>{} : it->second;
}

std::vector<DocId> NameIndex::LookupPattern(const std::string& pattern) const {
  if (!HasWildcards(pattern)) return Lookup(pattern);
  const std::string lowered = ToLower(pattern);
  const std::string_view literal_prefix =
      std::string_view(lowered).substr(0, lowered.find_first_of("*?"));
  const std::string_view literal_suffix =
      std::string_view(lowered).substr(lowered.find_last_of("*?") + 1);
  std::vector<DocId> out;
  auto verify = [&](const NameEntry& entry) {
    if (WildcardMatch(pattern, entry.first)) {
      out.insert(out.end(), entry.second.begin(), entry.second.end());
    }
  };
  const NameEntryList* postings = nullptr;
  if (literal_suffix.size() >= kGram &&
      literal_suffix.size() > literal_prefix.size()) {
    for (auto it = by_suffix_.lower_bound(literal_suffix);
         it != by_suffix_.end() && EndsWith((*it)->first, literal_suffix);
         ++it) {
      verify(**it);
    }
  } else if (literal_prefix.size() < kGram &&
             (postings = RarestTrigram(lowered)) != nullptr) {
    for (const NameEntry* entry : *postings) verify(*entry);
  } else {
    // Literal prefix of kGram bytes, or no usable literal at all: scan the
    // distinct names, bounded by the prefix if there is one.
    const std::string prefix(literal_prefix);
    auto it = prefix.empty() ? by_name_.begin() : by_name_.lower_bound(prefix);
    for (; it != by_name_.end(); ++it) {
      if (!prefix.empty() && it->first.compare(0, prefix.size(), prefix) != 0) {
        break;  // left the prefix range
      }
      verify(*it);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {
constexpr uint64_t kNameMagic = 0x69444D314E414D31ULL;  // "iDM1NAM1"
constexpr uint32_t kNameFormatVersion = 1;
}  // namespace

std::string NameIndex::Serialize() const {
  std::string out;
  codec::PutU64(&out, kNameMagic);
  codec::PutU32(&out, kNameFormatVersion);
  std::vector<DocId> ids;
  ids.reserve(names_.size());
  for (const auto& [id, name] : names_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  codec::PutU64(&out, ids.size());
  for (DocId id : ids) {
    codec::PutU64(&out, id);
    codec::PutString(&out, names_.at(id));
  }
  return out;
}

Result<NameIndex> NameIndex::Deserialize(const std::string& data) {
  size_t pos = 0;
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!codec::GetU64(data, &pos, &magic) || magic != kNameMagic) {
    return Status::ParseError("not a serialized name index");
  }
  if (!codec::GetU32(data, &pos, &version) || version != kNameFormatVersion) {
    return Status::ParseError("unsupported name index format version");
  }
  uint64_t count = 0;
  if (!codec::GetU64(data, &pos, &count)) {
    return Status::ParseError("truncated name index");
  }
  NameIndex index;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    std::string name;
    if (!codec::GetU64(data, &pos, &id) ||
        !codec::GetString(data, &pos, &name)) {
      return Status::ParseError("truncated name index entry");
    }
    index.Add(id, name);
  }
  if (pos != data.size()) return Status::ParseError("trailing bytes");
  return index;
}

size_t NameIndex::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [id, name] : names_) {
    total += sizeof(id) + sizeof(name) + name.capacity();
  }
  for (const auto& [name, ids] : by_name_) {
    total += sizeof(name) + name.capacity() + sizeof(ids) +
             ids.capacity() * sizeof(DocId);
  }
  // The accelerator: the suffix lexicon (a tree node of three pointers and
  // a colour word, plus the entry pointer, per distinct name) and the
  // trigram postings (hash buckets, a node per trigram, its list).
  constexpr size_t kTreeNode = 4 * sizeof(void*);
  constexpr size_t kHashNode = 2 * sizeof(void*);
  total += by_suffix_.size() * (kTreeNode + sizeof(const NameEntry*));
  total += trigrams_.bucket_count() * sizeof(void*);
  for (const auto& [gram, postings] : trigrams_) {
    total += kHashNode + sizeof(gram) + sizeof(postings) +
             postings.capacity() * sizeof(const NameEntry*);
  }
  return total;
}

}  // namespace idm::index
