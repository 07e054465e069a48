// The write side of the benchmark: a seeded script of desktop writes
// (notes, document copies, edits, deletes, mail) made through the sources'
// public APIs, each followed by a sync and a search for the unique token
// it planted; then a crash and timed recoveries that must bring every
// acknowledged write back.

#ifndef IDM_PERFBENCH_SESSION_H_
#define IDM_PERFBENCH_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace idm::perfbench {

enum class WriteKind {
  kCreateNote,  ///< a new .txt note sized like the generated corpus
  kCreateCopy,  ///< a copy of a generated .tex (or, 1 in 8, .xml) document
  kEditNote,    ///< rewrite an earlier note
  kEditCorpus,  ///< rewrite a generated .txt (or, 1 in 10, .tex) file
  kDelete,      ///< remove an earlier note
  kMail,        ///< ImapServer::Append of a new message
};

class WriteSession {
 public:
  /// \p setup must outlive the session; the script and the
  /// text it writes follow from \p seed.
  WriteSession(uint64_t seed, Setup* setup, Record* record, Tracer* tracer);

  /// Registers standing saved searches, drained after every sync.
  void Subscribe(const std::vector<std::string>& queries);

  /// The next write of desktop_sync's seeded script.
  WriteKind Draw();

  /// One write, its sync, and the search for its token; the time until the
  /// write is visible goes to the "create"/"edit"/"delete"/"mail" series.
  /// \p traced wraps the calls in spans. False when it failed.
  bool Write(WriteKind kind, bool traced);

  /// Timed Dataspace::Checkpoint (the image size is tallied too).
  void Checkpoint();
  /// Whether Write checkpoints when the store asks for it (on by default).
  /// Off before a crash, so the restart replays every write since the
  /// last explicit checkpoint.
  void set_auto_checkpoint(bool on) { auto_checkpoint_ = on; }

  /// Crashes the store (MemEnv::CrashNow + Reboot) after capturing every
  /// planted token's search result and the live view count, then opens it
  /// \p restarts times, timing each Open into the "restart_s" series. The
  /// first recovery must reproduce the captured state. Destroys the
  /// dataspace.
  void CrashAndRestart(int restarts);

  /// Per-layer metrics of the write path (traced run): source call and
  /// sync times by write kind, views touched, subscription and storage
  /// deltas since the session began.
  void ReportLayers() const;

  uint64_t writes() const { return writes_; }

 private:
  std::string NextToken();
  std::string NoteText(const std::string& token);
  bool WriteFile(const std::string& path, std::string content,
                 uint64_t request, bool traced);
  bool Sync(WriteKind kind, uint64_t request, bool traced);
  /// True when \p token's search finds a view whose uri starts with
  /// \p uri_prefix; *ok is false when the search itself failed.
  bool Finds(const iql::Dataspace& ds, const std::string& token,
             const std::string& uri_prefix, bool* ok) const;
  std::map<std::string, std::vector<std::string>> TokenState(
      const iql::Dataspace& ds) const;

  uint64_t seed_;
  Setup* setup_;
  Record* record_;
  Tracer* tracer_;
  Rng rng_;
  Rng text_rng_;
  workload::TextGenerator text_;
  TreeNames tree_;
  std::vector<std::string> corpus_txt_, corpus_tex_, corpus_xml_;
  std::vector<std::string> mail_folders_;
  std::vector<std::shared_ptr<sub::Subscription>> subscriptions_;

  /// Written items that exist, path -> the token they carry now.
  std::map<std::string, std::string> notes_, corpus_tokens_;
  std::map<std::string, std::string> corpus_original_;
  std::vector<std::string> tokens_;  ///< every acknowledged token
  std::vector<WriteKind> block_;     ///< rest of the script's current block
  uint64_t next_token_ = 0;
  uint64_t next_name_ = 0;
  uint64_t request_ = 0;
  bool auto_checkpoint_ = true;

  // Tallies for ReportLayers.
  iql::DataspaceStats stats_before_;
  uint64_t writes_ = 0;
  uint64_t user_bytes_ = 0;
  uint64_t wal_bytes_ = 0;  ///< WAL bytes the writes' syncs appended
  uint64_t fsyncs_ = 0;     ///< fsyncs the writes' syncs issued
  uint64_t views_added_ = 0, views_removed_ = 0;
  uint64_t checkpoints_ = 0;
  double checkpoint_ms_ = 0;
  uint64_t checkpoint_bytes_ = 0;
  uint64_t replayed_ = 0;
  iql::DataspaceStats stats_after_;
};

}  // namespace idm::perfbench

#endif  // IDM_PERFBENCH_SESSION_H_
