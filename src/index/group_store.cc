#include "index/group_store.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "util/codec.h"

namespace idm::index {

void GroupStore::SetChildren(DocId parent, std::vector<DocId> children) {
  RemoveParent(parent);
  for (DocId child : children) {
    auto& up = parents_[child];
    up.insert(std::lower_bound(up.begin(), up.end(), parent), parent);
  }
  edges_ += children.size();
  children_[parent] = std::move(children);
}

void GroupStore::RemoveParent(DocId id) {
  auto it = children_.find(id);
  if (it == children_.end()) return;
  for (DocId child : it->second) {
    auto up_it = parents_.find(child);
    if (up_it == parents_.end()) continue;
    auto& up = up_it->second;
    auto pos = std::lower_bound(up.begin(), up.end(), id);
    if (pos != up.end() && *pos == id) up.erase(pos);
    if (up.empty()) parents_.erase(up_it);
  }
  edges_ -= it->second.size();
  children_.erase(it);
}

void GroupStore::RemoveAllEdgesOf(DocId id) {
  RemoveParent(id);
  auto it = parents_.find(id);
  if (it == parents_.end()) return;
  std::vector<DocId> up = it->second;  // copy: we mutate children_ below
  for (DocId parent : up) {
    auto ch_it = children_.find(parent);
    if (ch_it == children_.end()) continue;
    auto& ch = ch_it->second;
    size_t before = ch.size();
    ch.erase(std::remove(ch.begin(), ch.end(), id), ch.end());
    edges_ -= before - ch.size();
    if (ch.empty()) children_.erase(ch_it);
  }
  parents_.erase(id);
}

const std::vector<DocId>& GroupStore::Children(DocId id) const {
  static const std::vector<DocId> kEmpty;
  auto it = children_.find(id);
  return it == children_.end() ? kEmpty : it->second;
}

const std::vector<DocId>& GroupStore::Parents(DocId id) const {
  static const std::vector<DocId> kEmpty;
  auto it = parents_.find(id);
  return it == parents_.end() ? kEmpty : it->second;
}

namespace {

std::unordered_set<DocId> Reach(
    const std::vector<DocId>& starts, size_t max_nodes, size_t* expanded,
    util::ExecContext* ctx,
    const std::function<const std::vector<DocId>*(DocId)>& neighbors) {
  std::unordered_set<DocId> visited;
  std::deque<DocId> queue;
  size_t touched = 0;
  for (DocId start : starts) queue.push_back(start);
  std::unordered_set<DocId> enqueued(starts.begin(), starts.end());
  while (!queue.empty() && visited.size() < max_nodes) {
    if (ctx != nullptr && !ctx->TickAlive()) break;  // one step per node
    DocId id = queue.front();
    queue.pop_front();
    ++touched;
    const std::vector<DocId>* next = neighbors(id);
    if (next == nullptr) continue;
    for (DocId n : *next) {
      visited.insert(n);
      if (enqueued.insert(n).second) queue.push_back(n);
    }
  }
  if (expanded != nullptr) *expanded = touched;
  return visited;
}

}  // namespace

std::unordered_set<DocId> GroupStore::Descendants(
    const std::vector<DocId>& roots, size_t max_nodes, size_t* expanded,
    util::ExecContext* ctx) const {
  return Reach(roots, max_nodes, expanded, ctx, [this](DocId id) {
    auto it = children_.find(id);
    return it == children_.end() ? nullptr : &it->second;
  });
}

std::unordered_set<DocId> GroupStore::Ancestors(
    const std::vector<DocId>& targets, size_t max_nodes, size_t* expanded,
    util::ExecContext* ctx) const {
  return Reach(targets, max_nodes, expanded, ctx, [this](DocId id) {
    auto it = parents_.find(id);
    return it == parents_.end() ? nullptr : &it->second;
  });
}

bool GroupStore::ReachedFromAny(DocId start,
                                const std::vector<DocId>& sources,
                                size_t max_nodes, size_t* expanded,
                                util::ExecContext* ctx) const {
  // nodes[0, head) are expanded, nodes[head, end) wait in BFS order.
  std::vector<DocId> nodes{start};
  size_t head = 0;
  while (head < nodes.size() && nodes.size() < max_nodes) {
    if (ctx != nullptr && !ctx->TickAlive()) break;
    DocId id = nodes[head++];
    auto it = parents_.find(id);
    if (it == parents_.end()) continue;
    for (DocId parent : it->second) {
      if (std::binary_search(sources.begin(), sources.end(), parent)) {
        if (expanded != nullptr) *expanded += head;
        return true;
      }
      if (std::find(nodes.begin(), nodes.end(), parent) == nodes.end()) {
        nodes.push_back(parent);
      }
    }
  }
  if (expanded != nullptr) *expanded += head;
  return false;
}

namespace {
constexpr uint64_t kGroupMagic = 0x69444D3147525031ULL;  // "iDM1GRP1"
constexpr uint32_t kGroupFormatVersion = 1;
}  // namespace

std::string GroupStore::Serialize() const {
  std::string out;
  codec::PutU64(&out, kGroupMagic);
  codec::PutU32(&out, kGroupFormatVersion);
  std::vector<DocId> parents;
  parents.reserve(children_.size());
  for (const auto& [id, ch] : children_) parents.push_back(id);
  std::sort(parents.begin(), parents.end());
  codec::PutU64(&out, parents.size());
  for (DocId parent : parents) {
    const std::vector<DocId>& ch = children_.at(parent);
    codec::PutU64(&out, parent);
    codec::PutU64(&out, ch.size());
    for (DocId child : ch) codec::PutU64(&out, child);
  }
  return out;
}

Result<GroupStore> GroupStore::Deserialize(const std::string& data) {
  size_t pos = 0;
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!codec::GetU64(data, &pos, &magic) || magic != kGroupMagic) {
    return Status::ParseError("not a serialized group store");
  }
  if (!codec::GetU32(data, &pos, &version) || version != kGroupFormatVersion) {
    return Status::ParseError("unsupported group store format version");
  }
  uint64_t count = 0;
  if (!codec::GetU64(data, &pos, &count)) {
    return Status::ParseError("truncated group store");
  }
  GroupStore store;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t parent = 0, n_children = 0;
    if (!codec::GetU64(data, &pos, &parent) ||
        !codec::GetU64(data, &pos, &n_children)) {
      return Status::ParseError("truncated group store entry");
    }
    if (n_children > (data.size() - pos) / 8) {
      return Status::ParseError("truncated child list");
    }
    std::vector<DocId> children;
    children.reserve(n_children);
    for (uint64_t c = 0; c < n_children; ++c) {
      uint64_t child = 0;
      if (!codec::GetU64(data, &pos, &child)) {
        return Status::ParseError("truncated child list");
      }
      children.push_back(child);
    }
    store.SetChildren(parent, std::move(children));
  }
  if (pos != data.size()) return Status::ParseError("trailing bytes");
  return store;
}

size_t GroupStore::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [id, ch] : children_) {
    total += sizeof(id) + sizeof(ch) + ch.capacity() * sizeof(DocId);
  }
  for (const auto& [id, up] : parents_) {
    total += sizeof(id) + sizeof(up) + up.capacity() * sizeof(DocId);
  }
  return total;
}

}  // namespace idm::index
