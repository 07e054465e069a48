#include "storage/snapshot.h"

#include "storage/crc32.h"
#include "util/codec.h"

namespace idm::storage {

namespace {

using codec::GetString;
using codec::GetU32;
using codec::GetU64;
using codec::PutString;
using codec::PutU32;
using codec::PutU64;

constexpr uint64_t kMagic = 0x69444D31434B5031ULL;  // "iDM1CKP1"
constexpr uint32_t kFormatVersion = 1;

}  // namespace

std::string Snapshot::Encode() const {
  // Reserved to the exact image size: growing geometrically would hold up
  // to twice the image at the checkpoint's memory peak.
  const std::string* parts[] = {&catalog, &names,   &tuples,  &content,
                                &groups,  &lineage, &versions};
  size_t size = 8 + 4 + 8 + 4;  // magic, format, last_commit_seq, seal
  for (const std::string* part : parts) size += 8 + part->size();
  std::string out;
  out.reserve(size);
  PutU64(&out, kMagic);
  PutU32(&out, kFormatVersion);
  PutU64(&out, last_commit_seq);
  PutString(&out, catalog);
  PutString(&out, names);
  PutString(&out, tuples);
  PutString(&out, content);
  PutString(&out, groups);
  PutString(&out, lineage);
  PutString(&out, versions);
  PutU32(&out, Crc32(out));  // seal: CRC of everything before it
  return out;
}

Result<Snapshot> Snapshot::Decode(const std::string& data) {
  if (data.size() < 4) return Status::ParseError("checkpoint too short");
  size_t body_size = data.size() - 4;
  size_t crc_pos = body_size;
  uint32_t stored_crc = 0;
  if (!GetU32(data, &crc_pos, &stored_crc)) {
    return Status::ParseError("checkpoint too short");
  }
  if (Crc32(std::string_view(data.data(), body_size)) != stored_crc) {
    return Status::ParseError("checkpoint CRC mismatch");
  }
  size_t pos = 0;
  uint64_t magic = 0;
  if (!GetU64(data, &pos, &magic) || magic != kMagic) {
    return Status::ParseError("not a checkpoint image");
  }
  uint32_t format = 0;
  if (!GetU32(data, &pos, &format) || format != kFormatVersion) {
    return Status::ParseError("unsupported checkpoint format version");
  }
  Snapshot snapshot;
  if (!GetU64(data, &pos, &snapshot.last_commit_seq) ||
      !GetString(data, &pos, &snapshot.catalog) ||
      !GetString(data, &pos, &snapshot.names) ||
      !GetString(data, &pos, &snapshot.tuples) ||
      !GetString(data, &pos, &snapshot.content) ||
      !GetString(data, &pos, &snapshot.groups) ||
      !GetString(data, &pos, &snapshot.lineage) ||
      !GetString(data, &pos, &snapshot.versions)) {
    return Status::ParseError("truncated checkpoint image");
  }
  if (pos != body_size) return Status::ParseError("trailing checkpoint bytes");
  return snapshot;
}

}  // namespace idm::storage
