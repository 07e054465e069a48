#include "storage/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace idm::storage {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// DiskEnv

Env* Env::Default() {
  static DiskEnv env;
  return &env;
}

Status DiskEnv::CreateDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("create_directories " + dir + ": " + ec.message());
  return Status::OK();
}

Result<std::vector<std::string>> DiskEnv::ListDir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> names;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

bool DiskEnv::Exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Result<std::string> DiskEnv::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("open " + path + " for read");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read " + path);
  return data;
}

Status DiskEnv::Append(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::IoError("open " + path + " for append");
  size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  int close_rc = std::fclose(f);
  if (written != data.size() || close_rc != 0) {
    return Status::IoError("append to " + path);
  }
  return Status::OK();
}

Status DiskEnv::Sync(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return Status::IoError("open " + path + " for fsync");
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("fsync " + path);
  return Status::OK();
}

Status DiskEnv::Truncate(const std::string& path, uint64_t size) {
  std::error_code ec;
  fs::resize_file(path, size, ec);
  if (ec) return Status::IoError("truncate " + path + ": " + ec.message());
  return Status::OK();
}

Status DiskEnv::Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IoError("rename " + from + " -> " + to + ": " + ec.message());
  }
  return Status::OK();
}

Status DiskEnv::Delete(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // removing a missing file reports no error
  if (ec) return Status::IoError("delete " + path + ": " + ec.message());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MemEnv

namespace {
// Deterministic damage placement: the byte/bit hit by a silent corruption
// is a pure function of the op ordinal, not an Rng draw — a scripted
// kBitFlip replays bit-identically and consumes no randomness.
size_t DamageOffset(uint64_t ordinal, size_t size) {
  return static_cast<size_t>((ordinal * 1315423911ull) % size);
}
}  // namespace

Status MemEnv::CheckOp(const char* op_name, FaultKind* corruption) {
  if (crashed_) return Status::IoError("machine crashed (awaiting reboot)");
  ++mutating_ops_;
  if (injector_ != nullptr) {
    EnvVerdict verdict = injector_->OnEnvOperation(op_name);
    if (corruption != nullptr) *corruption = verdict.corruption;
    if (!verdict.status.ok()) {
      Crash();
      return Status::IoError(std::string("killed during ") + op_name);
    }
  }
  return Status::OK();
}

void MemEnv::Crash() {
  // The page cache dies with the machine: of every file's unsynced bytes,
  // only the scripted writeback prefix reaches the platter.
  for (auto& [path, file] : files_) {
    size_t keep = std::min<uint64_t>(crash_writeback_bytes_,
                                     file.buffered.size());
    file.durable.append(file.buffered, 0, keep);
    file.buffered.clear();
  }
  crashed_ = true;
}

void MemEnv::Reboot() { crashed_ = false; }

Status MemEnv::CreateDir(const std::string& dir) {
  IDM_RETURN_NOT_OK(CheckOp("env.create_dir"));
  if (std::find(dirs_.begin(), dirs_.end(), dir) == dirs_.end()) {
    dirs_.push_back(dir);
  }
  return Status::OK();
}

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& dir) {
  if (crashed_) return Status::IoError("machine crashed (awaiting reboot)");
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::vector<std::string> names;
  for (const auto& [path, file] : files_) {
    if (path.size() <= prefix.size() || path.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    std::string rest = path.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(rest);
  }
  return names;  // map iteration is already sorted
}

bool MemEnv::Exists(const std::string& path) {
  return !crashed_ && files_.count(path) > 0;
}

Result<std::string> MemEnv::ReadFile(const std::string& path) {
  if (crashed_) return Status::IoError("machine crashed (awaiting reboot)");
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second.durable + it->second.buffered;
}

Status MemEnv::Append(const std::string& path, std::string_view data) {
  // The bytes of a killed append are buffered first so the crash writeback
  // can preserve a prefix of them — that is the mid-record torn tail.
  if (!crashed_) files_[path].buffered.append(data);
  FaultKind corruption = FaultKind::kNone;
  Status gate = CheckOp("env.append", &corruption);
  if (!gate.ok()) return gate;
  if (corruption != FaultKind::kNone && !data.empty()) {
    // The device accepted the write and lied: damage lands in the slice
    // just buffered, silently. Deterministic placement (see DamageOffset).
    std::string& buffered = files_[path].buffered;
    size_t start = buffered.size() - data.size();
    if (corruption == FaultKind::kBitFlip) {
      size_t at = start + DamageOffset(mutating_ops_, data.size());
      buffered[at] = static_cast<char>(buffered[at] ^
                                       (1u << (mutating_ops_ % 8)));
    } else if (corruption == FaultKind::kTruncate) {
      // Half the slice reaches the medium; the rest was never written.
      buffered.resize(start + data.size() / 2);
    }
  }
  return Status::OK();
}

Status MemEnv::Sync(const std::string& path) {
  FaultKind corruption = FaultKind::kNone;
  IDM_RETURN_NOT_OK(CheckOp("env.sync", &corruption));
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  File& file = it->second;
  if (corruption != FaultKind::kNone && !file.buffered.empty()) {
    // Writeback mangles the bytes being sealed durable; fsync reports OK.
    if (corruption == FaultKind::kBitFlip) {
      size_t at = DamageOffset(mutating_ops_, file.buffered.size());
      file.buffered[at] = static_cast<char>(file.buffered[at] ^
                                            (1u << (mutating_ops_ % 8)));
    } else if (corruption == FaultKind::kTruncate) {
      file.buffered.resize(file.buffered.size() / 2);
    }
  }
  // A file synced once (a checkpoint image) moves its buffer instead of
  // copying it, and the buffer's capacity is released, so no second
  // full-size copy stays resident.
  if (file.durable.empty()) {
    file.durable.swap(file.buffered);
  } else {
    file.durable += file.buffered;
  }
  std::string().swap(file.buffered);
  return Status::OK();
}

bool MemEnv::CorruptDurable(const std::string& path, uint64_t offset) {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  std::string& durable = it->second.durable;
  if (offset >= durable.size()) return false;
  durable[offset] = static_cast<char>(durable[offset] ^ 0x40);
  return true;
}

bool MemEnv::TruncateDurable(const std::string& path, uint64_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  File& file = it->second;
  if (size > file.durable.size()) return false;
  file.durable.resize(size);
  file.buffered.clear();
  return true;
}

Status MemEnv::Truncate(const std::string& path, uint64_t size) {
  IDM_RETURN_NOT_OK(CheckOp("env.truncate"));
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  File& file = it->second;
  uint64_t visible = file.durable.size() + file.buffered.size();
  if (size >= visible) return Status::OK();
  if (size <= file.durable.size()) {
    file.durable.resize(size);
    file.buffered.clear();
  } else {
    file.buffered.resize(size - file.durable.size());
  }
  return Status::OK();
}

Status MemEnv::Rename(const std::string& from, const std::string& to) {
  IDM_RETURN_NOT_OK(CheckOp("env.rename"));
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

Status MemEnv::Delete(const std::string& path) {
  IDM_RETURN_NOT_OK(CheckOp("env.delete"));
  files_.erase(path);
  return Status::OK();
}

}  // namespace idm::storage
