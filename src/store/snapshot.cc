#include "store/snapshot.h"

#include <cstdio>
#include <string_view>

#include "common/fs_util.h"
#include "common/string_util.h"
#include "store/fault_injector.h"

namespace slicetuner {
namespace store {

namespace {
constexpr const char kMagic[] = "SLICETUNER-SNAPSHOT";

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

}  // namespace

std::string EncodeSnapshot(const json::Value& doc) {
  const std::string payload = doc.Dump(/*indent=*/2) + "\n";
  return StrFormat("%s v%d %08x %zu\n", kMagic, kSnapshotVersion,
                   Crc32(payload), payload.size()) +
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
  const std::string header = content.substr(0, newline);
  int version = 0;
  unsigned int crc = 0;
  size_t payload_bytes = 0;
  char magic[32] = {0};
  if (std::sscanf(header.c_str(), "%31s v%d %08x %zu", magic, &version, &crc,
                  &payload_bytes) != 4 ||
      std::string(magic) != kMagic) {
    return Status::Internal("snapshot " + path + ": malformed header '" +
                            header + "'");
  }
  if (version != kSnapshotVersion) {
    return Status::Internal(
        StrFormat("snapshot %s: format version v%d unsupported (this build "
                  "speaks v%d)",
                  path.c_str(), version, kSnapshotVersion));
  }
  const std::string_view payload =
      std::string_view(content).substr(newline + 1);
  if (payload.size() != payload_bytes) {
    return Status::Internal(
        StrFormat("snapshot %s: payload is %zu bytes, header promises %zu",
                  path.c_str(), payload.size(), payload_bytes));
  }
  const uint32_t actual = Crc32(payload.data(), payload.size());
  if (actual != crc) {
    return Status::Internal(
        StrFormat("snapshot %s: CRC mismatch (stored %08x, computed %08x)",
                  path.c_str(), crc, actual));
  }
  return json::Value::Parse(payload);
}

}  // namespace store
}  // namespace slicetuner
