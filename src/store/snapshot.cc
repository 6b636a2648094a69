#include "store/snapshot.h"

#include <charconv>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/fs_util.h"
#include "common/string_util.h"
#include "store/fault_injector.h"
#include "store/journal.h"

namespace slicetuner {
namespace store {

namespace {
constexpr const char kMagic[] = "SLICETUNER-SNAPSHOT";
// The document member whose elements v2 frames one per line.
constexpr const char kSessions[] = "sessions";

// Every snapshot write passes its durability boundaries through the fault
// injector: tests fail the tmp write (disk full), or capture crash images
// just before / just after the publishing rename.
const AtomicWriteHooks& SnapshotWriteHooks() {
  static const AtomicWriteHooks& hooks = *new AtomicWriteHooks{
      [] { return FaultInjector::Global().Reached(fault::kSnapshotWriteTmp); },
      [] {
        return FaultInjector::Global().Reached(fault::kSnapshotPreRename);
      },
      [] {
        return FaultInjector::Global().Reached(fault::kSnapshotPostRename);
      },
  };
  return hooks;
}

// Parses all of `text` as a number in `base` (no sign, no junk).
template <typename T>
bool ParseWhole(std::string_view text, int base, T* out) {
  const char* end = text.data() + text.size();
  const std::from_chars_result read =
      std::from_chars(text.data(), end, *out, base);
  return !text.empty() && read.ec == std::errc() && read.ptr == end;
}

// v1: one pretty-printed document under one whole-payload CRC.
Result<json::Value> DecodeV1(const std::string& path,
                             std::string_view payload, uint32_t crc) {
  const uint32_t actual = Crc32(payload.data(), payload.size());
  if (actual != crc) {
    return Status::Internal(
        StrFormat("snapshot %s: CRC mismatch (stored %08x, computed %08x)",
                  path.c_str(), crc, actual));
  }
  return json::Value::Parse(payload);
}

// v2: the head line, then one framed line per "sessions" element, decoded
// in parallel and put back in place of the head's empty placeholder.
Result<json::Value> DecodeV2(const std::string& path,
                             std::string_view payload, size_t records) {
  FramedLines framed = DecodeFramedLines(payload);
  std::vector<FramedLine>& lines = framed.lines;
  if (records == 0 || lines.size() != records ||
      framed.unterminated_bytes != 0) {
    return Status::Internal(StrFormat(
        "snapshot %s: %zu framed lines (%zu trailing bytes), header "
        "promises %zu",
        path.c_str(), lines.size(), framed.unterminated_bytes, records));
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].value.ok()) {
      return Status::Internal(
          StrFormat("snapshot %s: line %zu: %s", path.c_str(), i + 1,
                    lines[i].value.status().message().c_str()));
    }
  }
  json::Value doc = std::move(*lines[0].value);
  if (records == 1) return doc;
  const json::Value* placeholder = doc.Find(kSessions);
  if (placeholder == nullptr || !placeholder->is_array() ||
      placeholder->size() != 0) {
    return Status::Internal("snapshot " + path +
                            ": entry lines but no empty \"sessions\" "
                            "placeholder in the head line");
  }
  json::Value sessions = json::Value::Array();
  for (size_t i = 1; i < lines.size(); ++i) {
    sessions.Append(std::move(*lines[i].value));
  }
  doc.Set(kSessions, std::move(sessions));
  return doc;
}

}  // namespace

std::string EncodeSnapshot(const json::Value& doc) {
  const json::Value* sessions = doc.Find(kSessions);
  std::string payload;
  size_t records = 1;
  if (sessions != nullptr && sessions->is_array()) {
    json::Value head = json::Value::Object();
    for (const auto& [key, value] : doc.members()) {
      head.Set(key, key == kSessions ? json::Value::Array() : value);
    }
    FrameRecord(head, &payload);
    for (const json::Value& entry : sessions->items()) {
      FrameRecord(entry, &payload);
    }
    records += sessions->size();
  } else {
    FrameRecord(doc, &payload);
  }
  return StrFormat("%s v%d %zu %zu\n", kMagic, kSnapshotVersion, records,
                   payload.size()) +
         payload;
}

Status WriteSnapshotFile(const std::string& path, const json::Value& doc,
                         size_t* bytes_written) {
  const std::string encoded = EncodeSnapshot(doc);
  if (bytes_written != nullptr) *bytes_written = encoded.size();
  return WriteFileAtomic(path, encoded, &SnapshotWriteHooks());
}

Result<json::Value> ReadSnapshotFile(const std::string& path) {
  ST_ASSIGN_OR_RETURN(const std::string content, ReadFileToString(path));
  const size_t newline = content.find('\n');
  if (newline == std::string::npos) {
    return Status::Internal("snapshot " + path + ": missing header line");
  }
  const std::string_view header(content.data(), newline);
  const auto malformed = [&] {
    return Status::Internal("snapshot " + path + ": malformed header '" +
                            std::string(header) + "'");
  };
  // magic SP "v" major SP (v1: crc8hex | v2: records) SP payload_bytes
  const std::vector<std::string> fields = Split(header, ' ');
  int version = 0;
  size_t payload_bytes = 0;
  if (fields.size() != 4 || fields[0] != kMagic ||
      fields[1].rfind('v', 0) != 0 ||
      !ParseWhole(std::string_view(fields[1]).substr(1), 10, &version) ||
      !ParseWhole(fields[3], 10, &payload_bytes)) {
    return malformed();
  }
  if (version != 1 && version != kSnapshotVersion) {
    return Status::Internal(
        StrFormat("snapshot %s: format version v%d unsupported (this build "
                  "reads v1 and v%d)",
                  path.c_str(), version, kSnapshotVersion));
  }
  const std::string_view payload =
      std::string_view(content).substr(newline + 1);
  if (payload.size() != payload_bytes) {
    return Status::Internal(
        StrFormat("snapshot %s: payload is %zu bytes, header promises %zu",
                  path.c_str(), payload.size(), payload_bytes));
  }
  if (version == 1) {
    uint32_t crc = 0;
    if (fields[2].size() != 8 || !ParseWhole(fields[2], 16, &crc)) {
      return malformed();
    }
    return DecodeV1(path, payload, crc);
  }
  size_t records = 0;
  if (!ParseWhole(fields[2], 10, &records)) return malformed();
  return DecodeV2(path, payload, records);
}

}  // namespace store
}  // namespace slicetuner
