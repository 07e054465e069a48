#include "perfbench/session.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace idm::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

const char* KindName(WriteKind kind) {
  switch (kind) {
    case WriteKind::kCreateNote: return "create_note";
    case WriteKind::kCreateCopy: return "create_copy";
    case WriteKind::kEditNote: return "edit_note";
    case WriteKind::kEditCorpus: return "edit_corpus";
    case WriteKind::kDelete: return "delete";
    case WriteKind::kMail: return "mail";
  }
  return "?";
}

/// Inserts \p open + token + \p close before the last \p before in
/// \p content (at the end when absent).
std::string Plant(const std::string& content, const std::string& token,
                  const std::string& before, const std::string& open,
                  const std::string& close) {
  size_t at = content.rfind(before);
  if (at == std::string::npos) at = content.size();
  return content.substr(0, at) + open + token + close + content.substr(at);
}

}  // namespace

WriteSession::WriteSession(uint64_t seed, Setup* setup, Record* record,
                           Tracer* tracer)
    : seed_(seed),
      setup_(setup),
      record_(record),
      tracer_(tracer),
      rng_(DeriveSeed(seed, "write-script")),
      text_rng_(DeriveSeed(seed, "write-text")),
      text_(&text_rng_),
      tree_(WalkTree(*setup->sources.fs)) {
  for (const std::string& file : tree_.files) {
    if (file.ends_with(".txt")) corpus_txt_.push_back(file);
    if (file.ends_with(".tex")) corpus_tex_.push_back(file);
    if (file.ends_with(".xml")) corpus_xml_.push_back(file);
  }
  auto folders = setup->sources.imap->ListFolders();
  if (folders.ok()) mail_folders_ = *folders;
  if (corpus_txt_.empty() || corpus_tex_.empty() || corpus_xml_.empty() ||
      mail_folders_.empty() || tree_.folder_paths.empty() ||
      setup->ds->storage_engine() == nullptr) {
    throw std::runtime_error("write session: needs a durable, generated tree");
  }
  stats_before_ = setup->ds->Stats();
}

void WriteSession::Subscribe(const std::vector<std::string>& queries) {
  for (const std::string& query : queries) {
    auto sub = setup_->ds->Subscribe(query);
    if (!sub.ok()) {
      throw std::runtime_error("subscribe: " + sub.status().ToString());
    }
    subscriptions_.push_back(*sub);
  }
}

WriteKind WriteSession::Draw() {
  if (block_.empty()) {
    // Blocks of twenty writes with a fixed mix in a seeded order, so every
    // run of a few seconds performs nearly the same mix of work.
    const std::pair<WriteKind, int> kMix[] = {
        {WriteKind::kCreateNote, 6}, {WriteKind::kCreateCopy, 2},
        {WriteKind::kEditNote, 5},   {WriteKind::kEditCorpus, 2},
        {WriteKind::kDelete, 2},     {WriteKind::kMail, 3}};
    for (const auto& [kind, count] : kMix) {
      block_.insert(block_.end(), count, kind);
    }
    Shuffle(rng_, block_);
  }
  WriteKind kind = block_.back();
  block_.pop_back();
  return kind;
}

std::string WriteSession::NextToken() {
  // Generated text never holds "zq": the token matches its own write only.
  return "zq" + std::to_string(seed_ % 100000) + "x" +
         std::to_string(next_token_++);
}

std::string WriteSession::NoteText(const std::string& token) {
  // The mean size of the generated .txt corpus (PaperScale
  // text_file_words, 1450-4350). One fixed size: re-indexing a note costs
  // in proportion to its length, and a handful of randomly sized edits
  // would make a run's restart and write medians rest on the draw.
  return text_.WordsWithPhrase(2900, token);
}

bool WriteSession::Finds(const iql::Dataspace& ds, const std::string& token,
                         const std::string& uri_prefix, bool* ok) const {
  auto result = ds.Query("\"" + token + "\"");
  *ok = result.ok();
  if (!result.ok()) return false;
  for (const auto& row : result->rows) {
    if (ds.UriOf(row[0]).rfind(uri_prefix, 0) == 0) return true;
  }
  return false;
}

bool WriteSession::WriteFile(const std::string& path, std::string content,
                             uint64_t request, bool traced) {
  user_bytes_ += content.size();
  Tracer::Scope span(tracer_, "vfs.write", request, traced);
  return setup_->sources.fs->WriteFile(path, std::move(content)).ok();
}

bool WriteSession::Sync(WriteKind kind, uint64_t request, bool traced) {
  static const char* const kSpan[] = {"rvm.sync_create", "rvm.sync_create",
                                      "rvm.sync_edit",   "rvm.sync_edit",
                                      "rvm.sync_delete", "rvm.sync_mail"};
  Tracer::Scope span(tracer_, kSpan[static_cast<int>(kind)], request, traced);
  auto stats = setup_->ds->sync().ProcessNotifications();
  if (!stats.ok() || stats->failed > 0) return false;
  views_added_ += stats->added;
  views_removed_ += stats->removed;
  return true;
}

bool WriteSession::Write(WriteKind kind, bool traced) {
  // Nothing to edit or delete yet: create instead.
  if ((kind == WriteKind::kEditNote || kind == WriteKind::kDelete) &&
      notes_.empty()) {
    kind = WriteKind::kCreateNote;
  }
  uint64_t request = ++request_;
  Tracer::Scope root(tracer_, "write", request, traced);
  std::string token = NextToken();
  std::string expect_prefix;  // the view the new token must find
  std::string gone_token;     // a token that must no longer find its view
  std::string gone_prefix;
  Clock::time_point t0 = Clock::now();
  bool ok = true;
  switch (kind) {
    case WriteKind::kCreateNote: {
      std::string path = Pick(rng_, tree_.folder_paths) + "/note" +
                         std::to_string(next_name_++) + ".txt";
      ok = WriteFile(path, NoteText(token), request, traced);
      notes_[path] = token;
      expect_prefix = "vfs:" + path;
      break;
    }
    case WriteKind::kCreateCopy: {
      bool xml = rng_.Uniform(8) == 0;
      const std::string& source = Pick(rng_, xml ? corpus_xml_ : corpus_tex_);
      auto content = setup_->sources.fs->ReadFile(source);
      if (!content.ok()) throw std::runtime_error("read " + source);
      std::string path = Pick(rng_, tree_.folder_paths) + "/copy" +
                         std::to_string(next_name_++) + (xml ? ".xml" : ".tex");
      std::string planted =
          xml ? Plant(*content, token, "</root>", "<note>", "</note>")
              : Plant(*content, token, "\\end{document}", "\n", "\n");
      ok = WriteFile(path, std::move(planted), request, traced);
      expect_prefix = "vfs:" + path;
      break;
    }
    case WriteKind::kEditNote: {
      auto it = std::next(notes_.begin(), rng_.Uniform(notes_.size()));
      gone_token = it->second;
      gone_prefix = "vfs:" + it->first;
      ok = WriteFile(it->first, NoteText(token), request, traced);
      it->second = token;
      expect_prefix = gone_prefix;
      break;
    }
    case WriteKind::kEditCorpus: {
      bool tex = rng_.Uniform(10) == 0;
      const std::string& path = Pick(rng_, tex ? corpus_tex_ : corpus_txt_);
      if (!corpus_original_.count(path)) {
        auto content = setup_->sources.fs->ReadFile(path);
        if (!content.ok()) throw std::runtime_error("read " + path);
        corpus_original_[path] = *content;
      }
      const std::string& original = corpus_original_[path];
      auto previous = corpus_tokens_.find(path);
      if (previous != corpus_tokens_.end()) {
        gone_token = previous->second;
        gone_prefix = "vfs:" + path;
      }
      std::string edited =
          tex ? Plant(original, token, "\\end{document}", "\n", "\n")
              : original + "\n" + token + "\n";
      ok = WriteFile(path, std::move(edited), request, traced);
      corpus_tokens_[path] = token;
      expect_prefix = "vfs:" + path;
      break;
    }
    case WriteKind::kDelete: {
      auto it = std::next(notes_.begin(), rng_.Uniform(notes_.size()));
      gone_token = it->second;
      gone_prefix = "vfs:" + it->first;
      {
        Tracer::Scope span(tracer_, "vfs.write", request, traced);
        ok = setup_->sources.fs->Remove(it->first).ok();
      }
      notes_.erase(it);
      token.clear();
      break;
    }
    case WriteKind::kMail: {
      email::Message message;
      message.from = "desk@example.com";
      message.to = {"owner@example.com"};
      message.subject = "note " + token;
      message.date = setup_->ds->clock()->NowMicros();
      message.body = text_.WordsWithPhrase(200 + rng_.Uniform(800), token);
      user_bytes_ += message.body.size();
      const std::string& folder = Pick(rng_, mail_folders_);
      Result<uint64_t> uid = Status::Internal("not run");
      {
        Tracer::Scope span(tracer_, "email.append", request, traced);
        uid = setup_->sources.imap->Append(folder, std::move(message));
      }
      ok = uid.ok();
      if (ok) expect_prefix = "imap://" + folder + "/" + std::to_string(*uid);
      break;
    }
  }
  // The engine's wal_bytes restarts at every checkpoint, and checkpoints
  // fsync too: tally what each write's sync itself appended and synced.
  storage::StorageEngine::Stats storage_before =
      setup_->ds->storage_engine()->stats();
  if (ok) ok = Sync(kind, request, traced);
  const storage::StorageEngine::Stats& storage_after =
      setup_->ds->storage_engine()->stats();
  wal_bytes_ += storage_after.wal_bytes - storage_before.wal_bytes;
  fsyncs_ += storage_after.fsyncs - storage_before.fsyncs;
  bool visible = false;
  if (ok && !token.empty()) {
    Tracer::Scope span(tracer_, "iql.visible", request, traced);
    visible = Finds(*setup_->ds, token, expect_prefix, &ok);
  }
  double ms = MsSince(t0);
  ++record_->attempted;
  ++writes_;
  if (!ok) {
    ++record_->failed;
    return false;
  }
  switch (kind) {
    case WriteKind::kCreateNote: record_->Sample("create", ms); break;
    case WriteKind::kCreateCopy: record_->Sample("copy", ms); break;
    case WriteKind::kEditNote:
    case WriteKind::kEditCorpus: record_->Sample("edit", ms); break;
    case WriteKind::kDelete: record_->Sample("delete", ms); break;
    case WriteKind::kMail: record_->Sample("mail", ms); break;
  }
  if (!token.empty()) {
    tokens_.push_back(token);
    record_->Check("write_visible_to_search", visible,
                   std::string(KindName(kind)) + " " + expect_prefix +
                       " not found by " + token);
  }
  if (!gone_token.empty()) {
    bool query_ok = true;
    bool still = Finds(*setup_->ds, gone_token, gone_prefix, &query_ok);
    record_->Check("old_token_gone", query_ok && !still,
                   std::string(KindName(kind)) + " " + gone_prefix +
                       " still found by " + gone_token);
  }
  for (const auto& sub : subscriptions_) (void)sub->Drain();
  if (auto_checkpoint_ && setup_->ds->storage_engine()->NeedsCheckpoint()) {
    Checkpoint();
  }
  return true;
}

void WriteSession::Checkpoint() {
  Tracer::Scope span(tracer_, "storage.checkpoint", request_, true);
  Clock::time_point t0 = Clock::now();
  Status status = setup_->ds->Checkpoint();
  checkpoint_ms_ += MsSince(t0);
  ++checkpoints_;
  record_->Check("checkpoint_ok", status.ok(), status.ToString());
  storage::StorageEngine* engine = setup_->ds->storage_engine();
  auto image = setup_->env->ReadFile(engine->dir() + "/checkpoint-" +
                                     std::to_string(engine->generation()) +
                                     ".ckpt");
  if (image.ok()) checkpoint_bytes_ += image->size();
}

std::map<std::string, std::vector<std::string>> WriteSession::TokenState(
    const iql::Dataspace& ds) const {
  std::map<std::string, std::vector<std::string>> state;
  for (const std::string& token : tokens_) {
    std::vector<std::string>& uris = state[token];
    auto result = ds.Query("\"" + token + "\"");
    if (!result.ok()) {
      uris.push_back("error: " + result.status().ToString());
      continue;
    }
    for (const auto& row : result->rows) uris.push_back(ds.UriOf(row[0]));
    std::sort(uris.begin(), uris.end());
  }
  return state;
}

void WriteSession::CrashAndRestart(int restarts) {
  stats_after_ = setup_->ds->Stats();
  std::map<std::string, std::vector<std::string>> expected =
      TokenState(*setup_->ds);
  size_t live = setup_->ds->module().catalog().live_count();
  record_->Info("tokens_checked", std::to_string(expected.size()));

  // Every acknowledged write was fsynced (the default policy), so a crash
  // may lose nothing that a search already returned.
  iql::Dataspace::Config config;
  config.storage_dir = setup_->ds->storage_engine()->dir();
  config.env = setup_->env.get();
  setup_->env->CrashNow();
  subscriptions_.clear();
  setup_->ds.reset();
  setup_->env->Reboot();
  for (int i = 0; i < restarts; ++i) {
    Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<iql::Dataspace>> reopened =
        Status::Internal("not run");
    {
      Tracer::Scope span(tracer_, "storage.restart", 0, true);
      reopened = iql::Dataspace::Open(config);
    }
    double seconds = MsSince(t0) / 1000.0;
    ++record_->attempted;
    if (!reopened.ok()) {
      ++record_->failed;
      record_->Check("restart_ok", false, reopened.status().ToString());
      return;
    }
    record_->Sample("restart_s", seconds);
    if (i > 0) continue;
    const iql::Dataspace& recovered = **reopened;
    replayed_ = recovered.recovery_stats().replayed_mutations;
    size_t recovered_live = recovered.module().catalog().live_count();
    record_->Check("restart_live_count", recovered_live == live,
                   std::to_string(recovered_live) + " live views, expected " +
                       std::to_string(live));
    std::map<std::string, std::vector<std::string>> state =
        TokenState(recovered);
    size_t differ = 0;
    std::string example;
    for (const auto& [token, uris] : expected) {
      if (state[token] != uris) {
        ++differ;
        example = token;
      }
    }
    record_->Check("restart_tokens_identical", differ == 0,
                   std::to_string(differ) + " tokens differ, e.g. " + example);
  }
}

void WriteSession::ReportLayers() const {
  record_->Layer("vfs.write_us", tracer_->MeanMs("vfs.write") * 1000.0);
  record_->Layer("email.append_us", tracer_->MeanMs("email.append") * 1000.0);
  record_->Layer("rvm.sync_create_ms", tracer_->MeanMs("rvm.sync_create"));
  record_->Layer("rvm.sync_edit_ms", tracer_->MeanMs("rvm.sync_edit"));
  record_->Layer("rvm.sync_delete_ms", tracer_->MeanMs("rvm.sync_delete"));
  record_->Layer("rvm.sync_mail_ms", tracer_->MeanMs("rvm.sync_mail"));
  double writes = writes_ == 0 ? 1.0 : static_cast<double>(writes_);
  record_->Layer("rvm.views_added", views_added_ / writes);
  record_->Layer("rvm.views_removed", views_removed_ / writes);
  const sub::SubscriptionManager::Stats& s0 = stats_before_.subscriptions;
  const sub::SubscriptionManager::Stats& s1 = stats_after_.subscriptions;
  record_->Layer("sub.pumps", static_cast<double>(s1.pumps - s0.pumps));
  record_->Layer("sub.skipped", static_cast<double>(s1.skipped - s0.skipped));
  record_->Layer("sub.fastpath",
                 static_cast<double>(s1.fastpath - s0.fastpath));
  record_->Layer("sub.recomputes",
                 static_cast<double>(s1.recomputes - s0.recomputes));
  record_->Layer("storage.wal_bytes_per_write", wal_bytes_ / writes);
  record_->Layer("storage.fsyncs_per_write", fsyncs_ / writes);
  double stored = static_cast<double>(wal_bytes_ + checkpoint_bytes_);
  record_->Layer("storage.write_amp",
                 user_bytes_ == 0 ? 0 : stored / user_bytes_);
  record_->Layer("storage.checkpoint_ms",
                 checkpoints_ == 0 ? 0 : checkpoint_ms_ / checkpoints_);
  record_->Layer("storage.checkpoint_mb",
                 checkpoints_ == 0
                     ? 0
                     : checkpoint_bytes_ / 1048576.0 / checkpoints_);
  record_->Layer("storage.replayed_mutations", static_cast<double>(replayed_));
  const iql::QueryCache::Stats& c0 = stats_before_.cache;
  const iql::QueryCache::Stats& c1 = stats_after_.cache;
  record_->Layer("iql.cache.stale_drops",
                 static_cast<double>(c1.stale_drops - c0.stale_drops));
  record_->Layer("iql.cache.footprint_survived",
                 static_cast<double>(c1.footprint_survived -
                                     c0.footprint_survived));
  record_->Layer("index.blocks_built",
                 static_cast<double>(stats_after_.postings.built_lists -
                                     stats_before_.postings.built_lists));
}

}  // namespace idm::perfbench
