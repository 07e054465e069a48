#include "rvm/rvm.h"

#include <chrono>
#include <unordered_set>

#include "index/analyzer.h"
#include "util/string_util.h"

namespace idm::rvm {

using core::ContentComponent;
using core::GroupComponent;
using core::TupleComponent;
using core::ViewPtr;
using index::DocId;

namespace {

Micros WallNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Classifies a view uri for Table 2: base items have plain uris; derived
/// views carry a '#'-fragment stamped by the converter ("#xml...", "#tex...").
enum class Derivation { kBase, kXml, kLatex, kOther };

Derivation Classify(const std::string& uri) {
  size_t hash = uri.find('#');
  if (hash == std::string::npos) return Derivation::kBase;
  if (uri.compare(hash, 4, "#xml") == 0) return Derivation::kXml;
  if (uri.compare(hash, 4, "#tex") == 0) return Derivation::kLatex;
  return Derivation::kOther;
}

}  // namespace

// ---------------------------------------------------------------------------
// Mutation routing. Each primitive either touches the structure directly
// (no engine: the classic in-memory path) or builds a storage::Mutation,
// stages it in the engine's WAL batch and applies it through the SAME
// ApplyMutation used by recovery — live run and replay therefore execute
// identical state transitions.

storage::Structures ReplicaIndexesModule::Mutable() {
  storage::Structures s;
  s.catalog = &catalog_;
  s.names = &name_index_;
  s.tuples = &tuple_index_;
  s.content = &content_index_;
  s.groups = &group_store_;
  s.lineage = &lineage_;
  s.versions = &versions_;
  return s;
}

Status ReplicaIndexesModule::CommitBatch() {
  if (engine_ == nullptr) return Status::OK();
  return engine_->Commit();
}

uint32_t ReplicaIndexesModule::MutInternSource(const std::string& name) {
  if (engine_ == nullptr) return catalog_.InternSource(name);
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kInternSource;
  m.s1 = name;
  engine_->Log(m);
  return static_cast<uint32_t>(storage::ApplyMutation(m, Mutable()).value());
}

DocId ReplicaIndexesModule::MutRegister(const std::string& uri,
                                        const std::string& class_name,
                                        uint32_t source, bool derived) {
  if (engine_ == nullptr) {
    return catalog_.Register(uri, class_name, source, derived);
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kRegister;
  m.s1 = uri;
  m.s2 = class_name;
  m.a = source;
  m.b = derived ? 1 : 0;
  engine_->Log(m);
  return storage::ApplyMutation(m, Mutable()).value();
}

void ReplicaIndexesModule::MutCatalogRemove(DocId id) {
  if (engine_ == nullptr) {
    catalog_.Remove(id);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kCatalogRemove;
  m.a = id;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutNameAdd(DocId id, const std::string& name) {
  if (engine_ == nullptr) {
    name_index_.Add(id, name);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kNameAdd;
  m.a = id;
  m.s1 = name;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutNameRemove(DocId id) {
  if (engine_ == nullptr) {
    name_index_.Remove(id);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kNameRemove;
  m.a = id;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutTupleAdd(DocId id,
                                       const core::TupleComponent& tuple) {
  if (engine_ == nullptr) {
    tuple_index_.Add(id, tuple);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kTupleAdd;
  m.a = id;
  tuple.SerializeTo(&m.s1);
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutTupleRemove(DocId id) {
  if (engine_ == nullptr) {
    tuple_index_.Remove(id);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kTupleRemove;
  m.a = id;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutContentAdd(DocId id, const std::string& text) {
  if (engine_ == nullptr) {
    content_index_.AddDocument(id, text);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kContentAdd;
  m.a = id;
  m.s1 = text;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutContentRemove(DocId id) {
  if (engine_ == nullptr) {
    content_index_.RemoveDocument(id);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kContentRemove;
  m.a = id;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutGroupSet(DocId id, std::vector<DocId> children) {
  if (engine_ == nullptr) {
    group_store_.SetChildren(id, std::move(children));
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kGroupSet;
  m.a = id;
  m.ids.assign(children.begin(), children.end());
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutGroupRemoveAll(DocId id) {
  if (engine_ == nullptr) {
    group_store_.RemoveAllEdgesOf(id);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kGroupRemoveAll;
  m.a = id;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutLineageRecord(DocId derived, DocId origin,
                                            const std::string& transformation) {
  if (engine_ == nullptr) {
    lineage_.Record(derived, origin, transformation);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kLineageRecord;
  m.a = derived;
  m.b = origin;
  m.s1 = transformation;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutLineageForget(DocId id) {
  if (engine_ == nullptr) {
    lineage_.Forget(id);
    return;
  }
  storage::Mutation m;
  m.kind = storage::Mutation::Kind::kLineageForget;
  m.a = id;
  engine_->Log(m);
  (void)storage::ApplyMutation(m, Mutable());
}

void ReplicaIndexesModule::MutVersionAppend(index::ChangeRecord::Op op,
                                            DocId id) {
  ++mutation_count_;
  if (mutation_metric_ != nullptr) mutation_metric_->Inc();
  if (engine_ == nullptr) {
    versions_.Append(op, id);
  } else {
    storage::Mutation m;
    m.kind = storage::Mutation::Kind::kVersionAppend;
    m.a = static_cast<uint64_t>(op);
    m.b = id;
    // The timestamp rides in the record so replay reproduces it exactly
    // even though the recovering process observes a different clock.
    m.c = static_cast<uint64_t>(clock_ != nullptr ? clock_->NowMicros() : 0);
    engine_->Log(m);
    (void)storage::ApplyMutation(m, Mutable());
  }
  // Live-path epoch bookkeeping and change fan-out. Every mutation route
  // (indexing, sync, notifications, removal) funnels through this append,
  // so this is the single choke point where fine-grained epochs and the
  // subscription stream observe writes. The catalog entry is present for
  // adds/updates and tombstoned (uri and source retained) for removals;
  // the name replica has already dropped removed ids, so removals carry
  // an empty name.
  const index::Version version = versions_.current();
  const index::CatalogEntry* entry = catalog_.Entry(id);
  static const std::string kNoUri;
  const std::string& uri = entry != nullptr ? entry->uri : kNoUri;
  const uint32_t source = entry != nullptr ? entry->source : 0;
  epochs_.Note(source, uri, version);
  if (listener_) {
    const std::string& name = op == index::ChangeRecord::Op::kRemoved
                                  ? kNoUri
                                  : name_index_.NameOf(id);
    index::ChangeRecord record;
    record.version = version;
    record.op = op;
    record.id = id;
    listener_(record, source, uri, name);
  }
}

storage::Snapshot ReplicaIndexesModule::ExportSnapshot() const {
  storage::Snapshot snapshot;
  snapshot.last_commit_seq = engine_ != nullptr ? engine_->commit_seq() : 0;
  snapshot.catalog = catalog_.Serialize();
  snapshot.names = name_index_.Serialize();
  snapshot.tuples = tuple_index_.Serialize();
  snapshot.content = content_index_.Serialize();
  snapshot.groups = group_store_.Serialize();
  snapshot.lineage = lineage_.Serialize();
  snapshot.versions = versions_.Serialize();
  return snapshot;
}

Status ReplicaIndexesModule::RestoreSnapshot(const storage::Snapshot& snapshot) {
  IDM_ASSIGN_OR_RETURN(index::Catalog catalog,
                       index::Catalog::Deserialize(snapshot.catalog));
  IDM_ASSIGN_OR_RETURN(index::NameIndex names,
                       index::NameIndex::Deserialize(snapshot.names));
  IDM_ASSIGN_OR_RETURN(index::InvertedIndex content,
                       index::InvertedIndex::Deserialize(snapshot.content));
  IDM_ASSIGN_OR_RETURN(index::GroupStore groups,
                       index::GroupStore::Deserialize(snapshot.groups));
  IDM_ASSIGN_OR_RETURN(index::LineageStore lineage,
                       index::LineageStore::Deserialize(snapshot.lineage));
  IDM_ASSIGN_OR_RETURN(index::VersionLog versions,
                       index::VersionLog::Deserialize(snapshot.versions, clock_));
  // The tuple index restores in place (it is non-movable); it comes last so
  // a failure above leaves the module untouched.
  IDM_RETURN_NOT_OK(
      index::TupleIndex::DeserializeInto(snapshot.tuples, &tuple_index_));
  catalog_ = std::move(catalog);
  name_index_ = std::move(names);
  content_index_ = std::move(content);
  group_store_ = std::move(groups);
  lineage_ = std::move(lineage);
  versions_ = std::move(versions);
  // Restore bypasses MutVersionAppend, so the fine-grained epochs must be
  // reconstructed from the recovered log + catalog.
  epochs_.Rebuild(versions_, catalog_);
  return Status::OK();
}

Status ReplicaIndexesModule::ReplayMutations(
    const std::vector<storage::Mutation>& mutations) {
  storage::Structures structures = Mutable();
  for (const storage::Mutation& m : mutations) {
    IDM_RETURN_NOT_OK(storage::ApplyMutation(m, structures).status());
  }
  // Replay applies mutations directly (silent: no listener, no epoch
  // notes); rebuild the epoch map to match the replayed log.
  epochs_.Rebuild(versions_, catalog_);
  return Status::OK();
}

Result<SourceIndexStats> ReplicaIndexesModule::Walk(
    DataSource& source, const ConverterRegistry& converters,
    const ViewPtr& root, const IndexingOptions& options, SyncStats* sync) {
  SourceIndexStats stats;
  stats.source_name = source.name();
  stats.source_bytes = source.TotalBytes();
  uint32_t source_id = MutInternSource(source.name());
  Micros sim_start = source.access_micros();

  std::deque<ViewPtr> queue;
  std::unordered_set<std::string> visited;
  // Children are pre-registered in the catalog (their ids are needed for
  // group edges) before they are visited; remember them so they still
  // count as "added" when popped.
  std::unordered_set<DocId> preregistered;

  ViewPtr start = options.apply_converters ? converters.MaybeWrap(root) : root;
  if (start != nullptr) {
    queue.push_back(start);
    visited.insert(start->uri());
  }

  while (!queue.empty()) {
    if (stats.views_total >= options.max_views) {
      stats.truncated = true;
      break;
    }
    ViewPtr view = std::move(queue.front());
    queue.pop_front();
    ++stats.views_total;

    // --- Phase 1: data source access ---------------------------------------
    Micros t0 = WallNow();
    const std::string& uri = view->uri();
    std::string name = view->GetNameComponent();
    TupleComponent tuple = view->GetTupleComponent();
    ContentComponent content = view->GetContentComponent();
    std::string text;
    bool has_text = false;
    if (!content.empty() && content.finite()) {
      auto materialized = content.ToString();
      if (materialized.ok() && index::LooksLikeText(*materialized)) {
        text = std::move(materialized).value();
        has_text = !text.empty();
      }
    } else if (!content.empty() && options.infinite_content_prefix > 0) {
      // Infinite χ: index a bounded prefix so stream views are searchable.
      std::string prefix =
          content.GuardedPrefix(options.infinite_content_prefix, nullptr);
      if (index::LooksLikeText(prefix)) {
        text = std::move(prefix);
        has_text = !text.empty();
      }
      stats.truncated = true;  // only the prefix of the stream is indexed
    }
    stats.times.data_source_access += WallNow() - t0;

    // --- Phase 1b: group expansion & Content2iDM conversion ----------------
    // Converter parsing is RVM work, not source access; it lands in the
    // component-indexing bar of Figure 5. (Simulated source charges raised
    // while listing children are still folded into access at the end.)
    Micros t0b = WallNow();
    GroupComponent group = view->GetGroupComponent();
    if (group.has_sequence() && !group.sequence_finite()) {
      stats.truncated = true;  // infinite Q: only the window is indexed
    }
    std::vector<ViewPtr> children = group.DirectlyRelated(options.infinite_window);
    if (options.apply_converters) {
      for (ViewPtr& child : children) child = converters.MaybeWrap(child);
    }
    stats.times.component_indexing += WallNow() - t0b;

    // --- Phase 2: catalog insert -------------------------------------------
    Micros t1 = WallNow();
    bool is_new = !catalog_.Find(uri).has_value();
    Derivation derivation = Classify(uri);
    DocId id = MutRegister(uri, view->class_name(), source_id,
                           derivation != Derivation::kBase);
    if (preregistered.erase(id) > 0) is_new = true;
    std::vector<DocId> child_ids;
    child_ids.reserve(children.size());
    for (const ViewPtr& child : children) {
      if (child == nullptr) continue;
      bool child_known = catalog_.Find(child->uri()).has_value();
      Derivation child_derivation = Classify(child->uri());
      DocId child_id = MutRegister(
          child->uri(), child->class_name(), source_id,
          child_derivation != Derivation::kBase);
      if (!child_known) preregistered.insert(child_id);
      child_ids.push_back(child_id);
    }
    stats.times.catalog_insert += WallNow() - t1;

    // --- Phase 3: component indexing ---------------------------------------
    Micros t2 = WallNow();
    bool changed = is_new;
    if (!is_new && sync != nullptr) {
      changed = name_index_.NameOf(id) != name ||
                !(tuple_index_.TupleOf(id) == tuple);
    }
    if (changed || sync == nullptr) {
      MutNameAdd(id, name);
      MutTupleAdd(id, tuple);
      if (has_text) {
        MutContentAdd(id, text);
      } else {
        MutContentRemove(id);
      }
    }
    if (has_text) stats.net_input_bytes += text.size();
    MutGroupSet(id, child_ids);
    // Lineage: a derived view was produced from its base item by a
    // Content2iDM conversion (paper §8, item 2).
    if (derivation != Derivation::kBase) {
      size_t hash = uri.find('#');
      auto base = catalog_.Find(uri.substr(0, hash));
      if (base.has_value() && *base != id) {
        const char* transformation =
            derivation == Derivation::kXml     ? "convert:xml"
            : derivation == Derivation::kLatex ? "convert:latex"
                                               : "convert";
        MutLineageRecord(id, *base, transformation);
      }
    }
    // Versioning: every observed change advances the dataspace version
    // (paper §8, item 1).
    if (is_new) {
      MutVersionAppend(index::ChangeRecord::Op::kAdded, id);
    } else if (changed) {
      MutVersionAppend(index::ChangeRecord::Op::kUpdated, id);
    }
    stats.times.component_indexing += WallNow() - t2;

    if (sync != nullptr) {
      if (is_new) {
        ++sync->added;
      } else if (changed) {
        ++sync->updated;
      }
    }

    // Optional integrity checking against the resource view classes.
    if (options.conformance_registry != nullptr) {
      Status conforms = options.conformance_registry->CheckConformance(
          *view, options.infinite_window);
      if (!conforms.ok()) {
        ++stats.conformance_violations;
        if (stats.conformance_samples.size() < 5) {
          stats.conformance_samples.push_back(conforms.ToString());
        }
      }
    }

    switch (derivation) {
      case Derivation::kBase: ++stats.views_base; break;
      case Derivation::kXml: ++stats.views_derived_xml; break;
      case Derivation::kLatex: ++stats.views_derived_latex; break;
      case Derivation::kOther: ++stats.views_derived_other; break;
    }

    for (ViewPtr& child : children) {
      if (child == nullptr) continue;
      if (visited.insert(child->uri()).second) {
        queue.push_back(std::move(child));
      }
    }
  }

  // Fold the source's simulated access cost into the access phase: it is
  // the dominant term for remote sources (paper Fig. 5, Email/IMAP).
  stats.times.data_source_access += source.access_micros() - sim_start;
  return stats;
}

Result<SourceIndexStats> ReplicaIndexesModule::IndexSource(
    DataSource& source, const ConverterRegistry& converters,
    const IndexingOptions& options) {
  IDM_ASSIGN_OR_RETURN(ViewPtr root, source.RootView());
  IDM_ASSIGN_OR_RETURN(SourceIndexStats stats,
                       Walk(source, converters, root, options, nullptr));
  IDM_RETURN_NOT_OK(CommitBatch());
  return stats;
}

Result<SyncStats> ReplicaIndexesModule::SyncSource(
    DataSource& source, const ConverterRegistry& converters,
    const IndexingOptions& options) {
  uint32_t source_id = MutInternSource(source.name());

  // Snapshot the *base* uris currently attributed to this source. Derived
  // views (converter subgraphs) are not probed individually: they are
  // removed together with their base item by RemoveSubtree.
  std::unordered_set<std::string> before;
  const auto live = catalog_.LiveSnapshot();
  for (DocId id : *live) {
    const index::CatalogEntry* entry = catalog_.Entry(id);
    if (entry != nullptr && entry->source == source_id && !entry->derived) {
      before.insert(entry->uri);
    }
  }

  IDM_ASSIGN_OR_RETURN(ViewPtr root, source.RootView());
  SyncStats sync;
  IDM_ASSIGN_OR_RETURN(SourceIndexStats stats,
                       Walk(source, converters, root, options, &sync));
  (void)stats;

  // Anything previously known but no longer reachable has been deleted
  // behind the RVM's back.
  for (const std::string& uri : before) {
    auto id = catalog_.Find(uri);
    if (!id.has_value()) continue;
    // Visited views were re-registered; detect the unvisited ones by
    // checking whether the walk refreshed their edges this round. Cheap
    // proxy: re-resolve via the source.
    auto live = source.ViewByUri(uri);
    if (!live.ok()) {
      if (live.status().IsRetryable()) {
        // A flaky probe is not a deletion: keep the last-known-good state
        // and let the next poll retry, instead of purging the subtree on a
        // transient kIoError/kUnavailable.
        sync.RecordFailure(uri);
        continue;
      }
      IDM_ASSIGN_OR_RETURN(SyncStats removed, RemoveSubtree(uri));
      sync.removed += removed.removed;
    }
  }
  IDM_RETURN_NOT_OK(CommitBatch());
  return sync;
}

Result<SyncStats> ReplicaIndexesModule::IndexSubtree(
    DataSource& source, const ConverterRegistry& converters,
    const std::string& uri, const IndexingOptions& options) {
  auto view = source.ViewByUri(uri);
  if (!view.ok()) {
    if (view.status().IsRetryable()) {
      // Partial-failure semantics: a flaky subtree is skipped and recorded,
      // not fatal — existing index state for it stays untouched.
      SyncStats sync;
      sync.RecordFailure(uri);
      return sync;
    }
    return view.status();
  }
  SyncStats sync;
  IDM_ASSIGN_OR_RETURN(SourceIndexStats stats,
                       Walk(source, converters, *view, options, &sync));
  (void)stats;
  // The walk starts *at* the changed uri, so a freshly created view is
  // indexed without the full poll that would refresh its parent's child
  // list — leaving it unreachable by descendant-path expansion until the
  // next Poll. Patch the missing γ edge through the Mut* choke point so
  // WAL replay and mutation listeners observe it too.
  LinkIntoParent(uri);
  IDM_RETURN_NOT_OK(CommitBatch());
  return sync;
}

void ReplicaIndexesModule::LinkIntoParent(const std::string& uri) {
  auto id = catalog_.Find(uri);
  if (!id.has_value() || uri.find('#') != std::string::npos) return;
  size_t slash = uri.rfind('/');
  if (slash == std::string::npos || slash == 0) return;
  // "vfs:/a/b" parents to "vfs:/a"; a top-level "vfs:/a" parents to the
  // scheme root "vfs:/" (the slash stays when stripping leaves none).
  auto parent = catalog_.Find(uri.substr(0, slash));
  if (!parent.has_value()) parent = catalog_.Find(uri.substr(0, slash + 1));
  if (!parent.has_value() || *parent == *id) return;
  std::vector<index::DocId> children = group_store_.Children(*parent);
  for (index::DocId child : children) {
    if (child == *id) return;
  }
  children.push_back(*id);
  MutGroupSet(*parent, std::move(children));
}

Result<SyncStats> ReplicaIndexesModule::RemoveSubtree(const std::string& uri) {
  SyncStats stats;
  std::string slash_prefix = uri + "/";
  std::string hash_prefix = uri + "#";
  // The held snapshot is immutable: removing ids below publishes a new one
  // on the next read and leaves this iteration untouched.
  const auto live = catalog_.LiveSnapshot();
  for (DocId id : *live) {
    const index::CatalogEntry* entry = catalog_.Entry(id);
    if (entry == nullptr) continue;
    const std::string& candidate = entry->uri;
    if (candidate == uri || StartsWith(candidate, slash_prefix) ||
        StartsWith(candidate, hash_prefix)) {
      MutCatalogRemove(id);
      MutNameRemove(id);
      MutTupleRemove(id);
      MutContentRemove(id);
      MutGroupRemoveAll(id);
      MutLineageForget(id);
      MutVersionAppend(index::ChangeRecord::Op::kRemoved, id);
      ++stats.removed;
    }
  }
  IDM_RETURN_NOT_OK(CommitBatch());
  return stats;
}

namespace {

void PutBlock(std::string* out, const std::string& block) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((block.size() >> (i * 8)) & 0xFF));
  }
  out->append(block);
}

bool GetBlock(const std::string& in, size_t* pos, std::string* block) {
  if (*pos + 8 > in.size()) return false;
  uint64_t len = 0;
  for (int i = 0; i < 8; ++i) {
    len |= static_cast<uint64_t>(static_cast<unsigned char>(in[*pos + i]))
           << (i * 8);
  }
  *pos += 8;
  if (*pos + len > in.size()) return false;
  block->assign(in, *pos, len);
  *pos += len;
  return true;
}

}  // namespace

std::string ReplicaIndexesModule::ExportMetadata() const {
  std::string out;
  PutBlock(&out, catalog_.Serialize());
  PutBlock(&out, versions_.Serialize());
  return out;
}

Status ReplicaIndexesModule::ImportMetadata(const std::string& data) {
  size_t pos = 0;
  std::string catalog_block, version_block;
  if (!GetBlock(data, &pos, &catalog_block) ||
      !GetBlock(data, &pos, &version_block) || pos != data.size()) {
    return Status::ParseError("malformed metadata image");
  }
  IDM_ASSIGN_OR_RETURN(index::Catalog catalog,
                       index::Catalog::Deserialize(catalog_block));
  IDM_ASSIGN_OR_RETURN(index::VersionLog versions,
                       index::VersionLog::Deserialize(version_block));
  catalog_ = std::move(catalog);
  versions_ = std::move(versions);
  return Status::OK();
}

IndexSizes ReplicaIndexesModule::Sizes() const {
  IndexSizes sizes;
  sizes.name_bytes = name_index_.MemoryUsage();
  sizes.tuple_bytes = tuple_index_.MemoryUsage();
  sizes.content_bytes = content_index_.MemoryUsage();
  sizes.group_bytes = group_store_.MemoryUsage();
  sizes.catalog_bytes = catalog_.MemoryUsage();
  return sizes;
}

void ReplicaIndexesModule::SetObservability(obs::Observability* obs) {
  mutation_metric_ =
      obs == nullptr ? nullptr : obs->metrics().counter("rvm.mutations");
}

// ---------------------------------------------------------------------------
// SynchronizationManager

Result<SourceIndexStats> SynchronizationManager::RegisterSource(
    std::shared_ptr<DataSource> source) {
  DataSource* raw = source.get();
  sources_.push_back(source);
  // Subscribe first so that changes racing the initial scan are not lost.
  Subscribe(raw);
  return module_->IndexSource(*raw, converters_, options_);
}

void SynchronizationManager::AttachSource(std::shared_ptr<DataSource> source) {
  DataSource* raw = source.get();
  sources_.push_back(std::move(source));
  Subscribe(raw);
}

void SynchronizationManager::Subscribe(DataSource* raw) {
  raw->SubscribeChanges(
      [this, raw, alive = std::weak_ptr<char>(alive_)](
          const SourceChange& change) {
        if (alive.expired()) return;  // manager is gone; drop the event
        pending_.emplace_back(raw, change);
      });
}

DataSource* SynchronizationManager::FindSource(const std::string& name) const {
  for (const auto& source : sources_) {
    if (source->name() == name) return source.get();
  }
  return nullptr;
}

Result<SyncStats> SynchronizationManager::Poll() {
  SyncStats total;
  for (const auto& source : sources_) {
    auto stats = module_->SyncSource(*source, converters_, options_);
    if (!stats.ok()) {
      if (stats.status().IsRetryable()) {
        // One unreachable source degrades the round instead of aborting it:
        // the remaining sources still sync, and the next poll retries.
        total.RecordFailure(source->name());
        continue;
      }
      return stats.status();
    }
    total.Merge(*stats);
  }
  // Polling observed the current state; queued notifications are subsumed.
  pending_.clear();
  ++totals_.polls;
  if (metrics_.polls != nullptr) metrics_.polls->Inc();
  Account(total);
  if (post_sync_) post_sync_();
  return total;
}

Result<SyncStats> SynchronizationManager::ProcessNotifications() {
  SyncStats total;
  while (!pending_.empty()) {
    auto [source, change] = pending_.front();
    pending_.pop_front();
    if (change.kind == SourceChange::Kind::kRemoved) {
      IDM_ASSIGN_OR_RETURN(SyncStats removed,
                           module_->RemoveSubtree(change.uri));
      total.removed += removed.removed;
    } else {
      auto stats =
          module_->IndexSubtree(*source, converters_, change.uri, options_);
      if (stats.ok()) {
        total.Merge(*stats);
      } else if (stats.status().code() == StatusCode::kNotFound) {
        // The item vanished between the notification and now: the stale
        // "added" collapses into a removal.
        IDM_ASSIGN_OR_RETURN(SyncStats removed,
                             module_->RemoveSubtree(change.uri));
        total.removed += removed.removed;
      } else {
        total.RecordFailure(change.uri);
      }
    }
    ++totals_.notifications;
    if (metrics_.notifications != nullptr) metrics_.notifications->Inc();
  }
  Account(total);
  if (post_sync_) post_sync_();
  return total;
}

void SynchronizationManager::Account(const SyncStats& stats) {
  totals_.added += stats.added;
  totals_.updated += stats.updated;
  totals_.removed += stats.removed;
  totals_.failed += stats.failed;
  if (metrics_.added != nullptr) {
    metrics_.added->Inc(stats.added);
    metrics_.updated->Inc(stats.updated);
    metrics_.removed->Inc(stats.removed);
    metrics_.failed->Inc(stats.failed);
  }
}

void SynchronizationManager::SetObservability(obs::Observability* obs) {
  if (obs == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  obs::MetricsRegistry& reg = obs->metrics();
  metrics_.added = reg.counter("rvm.sync.added");
  metrics_.updated = reg.counter("rvm.sync.updated");
  metrics_.removed = reg.counter("rvm.sync.removed");
  metrics_.failed = reg.counter("rvm.sync.failed");
  metrics_.polls = reg.counter("rvm.sync.polls");
  metrics_.notifications = reg.counter("rvm.sync.notifications");
}

}  // namespace idm::rvm
