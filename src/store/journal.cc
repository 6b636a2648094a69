#include "store/journal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/fs_util.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "store/fault_injector.h"

namespace slicetuner {
namespace store {

namespace {

constexpr size_t kCrcHexLen = 8;

// "crc8hex payload": header is 8 hex digits + one space.
constexpr size_t kHeaderLen = kCrcHexLen + 1;

bool ParseCrcHex(const char* text, uint32_t* crc) {
  uint32_t value = 0;
  for (size_t i = 0; i < kCrcHexLen; ++i) {
    const char c = text[i];
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *crc = value;
  return true;
}

std::string CrcHex(uint32_t crc) {
  char buf[kCrcHexLen + 1];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf, kCrcHexLen);
}

// Validates one complete "crc8hex payload" line (no newline). Returns the
// parsed payload or an error describing the failed check.
Result<json::Value> DecodeLine(std::string_view line) {
  if (line.size() < kHeaderLen || line[kCrcHexLen] != ' ') {
    return Status::InvalidArgument("record header malformed");
  }
  uint32_t expected;
  if (!ParseCrcHex(line.data(), &expected)) {
    return Status::InvalidArgument("record CRC not hex");
  }
  const std::string_view payload = line.substr(kHeaderLen);
  const uint32_t actual = Crc32(payload.data(), payload.size());
  if (actual != expected) {
    return Status::InvalidArgument(
        StrFormat("record CRC mismatch (stored %08x, computed %08x)",
                  expected, actual));
  }
  return json::Value::Parse(payload);
}

// A journal record is intact when its frame decodes to an object.
bool IntactRecord(const FramedLine& line) {
  return line.value.ok() && line.value->is_object();
}

}  // namespace

void FrameRecord(const json::Value& payload, std::string* out) {
  const std::string body = payload.Dump();
  *out += CrcHex(Crc32(body));
  *out += ' ';
  *out += body;
  *out += '\n';
}

std::string FrameRecord(const json::Value& payload) {
  std::string line;
  FrameRecord(payload, &line);
  return line;
}

FramedLines DecodeFramedLines(std::string_view bytes) {
  FramedLines out;
  out.lines.resize(
      static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n')));
  size_t pos = 0;
  for (FramedLine& line : out.lines) {
    line.end = bytes.find('\n', pos) + 1;
    pos = line.end;
  }
  out.unterminated_bytes = bytes.size() - pos;
  ParallelFor(out.lines.size(), [&out, bytes](size_t i) {
    const size_t begin = i == 0 ? 0 : out.lines[i - 1].end;
    const size_t end = out.lines[i].end - 1;  // without the LF
    out.lines[i].value = DecodeLine(bytes.substr(begin, end - begin));
  });
  return out;
}

Result<JournalReadResult> ReadJournal(const std::string& path) {
  JournalReadResult result;
  const Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) {
    if (content.status().code() == StatusCode::kNotFound) return result;
    return content.status();
  }
  FramedLines framed = DecodeFramedLines(*content);
  std::vector<FramedLine>& lines = framed.lines;

  // The valid prefix ends at the first damaged line. Damage may only be a
  // torn tail: an intact record after it cannot come from a crash.
  size_t valid = 0;
  while (valid < lines.size() && IntactRecord(lines[valid])) ++valid;
  for (size_t i = valid + 1; i < lines.size(); ++i) {
    if (!IntactRecord(lines[i])) continue;
    const std::string detail = lines[valid].value.ok()
                                   ? "record payload not an object"
                                   : lines[valid].value.status().message();
    return Status::Internal(
        "journal " + path + " is corrupted mid-file (" + detail +
        " followed by intact records); refusing to recover past silent "
        "data loss");
  }
  result.records.reserve(valid);
  for (size_t i = 0; i < valid; ++i) {
    result.records.push_back(std::move(*lines[i].value));
  }
  result.valid_bytes = valid == 0 ? 0 : lines[valid - 1].end;
  if (result.valid_bytes < content->size()) {
    result.tail_truncated = true;
    result.bytes_discarded = content->size() - result.valid_bytes;
  }
  return result;
}

JournalWriter::~JournalWriter() { Close(); }

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      records_appended_(other.records_appended_),
      valid_length_(other.valid_length_),
      dirty_(other.dirty_) {
  other.file_ = nullptr;
  other.dirty_ = false;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    file_ = other.file_;
    records_appended_ = other.records_appended_;
    valid_length_ = other.valid_length_;
    dirty_ = other.dirty_;
    other.file_ = nullptr;
    other.dirty_ = false;
  }
  return *this;
}

Result<JournalWriter> JournalWriter::Open(const std::string& path) {
  ST_RETURN_NOT_OK(FaultInjector::Global().Reached(fault::kJournalOpen));
  ST_ASSIGN_OR_RETURN(const JournalReadResult existing, ReadJournal(path));
  if (existing.tail_truncated) {
    // Physically drop the torn tail so appends continue a valid prefix.
    if (::truncate(path.c_str(),
                   static_cast<off_t>(existing.valid_bytes)) != 0) {
      return Status::Internal("JournalWriter: cannot truncate torn tail of " +
                              path + ": " + std::strerror(errno));
    }
  }
  JournalWriter writer;
  writer.path_ = path;
  writer.valid_length_ = existing.valid_bytes;
  writer.file_ = std::fopen(path.c_str(), "ab");
  if (writer.file_ == nullptr) {
    return Status::NotFound("JournalWriter: cannot open " + path);
  }
  return writer;
}

Status JournalWriter::Append(const json::Value& payload) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("JournalWriter: append after close");
  }
  const std::string line = FrameRecord(payload);
  FaultInjector& injector = FaultInjector::Global();
  const Status eio = injector.Reached(fault::kJournalAppend);
  const Status short_write =
      eio.ok() ? injector.Reached(fault::kJournalAppendShortWrite)
               : Status::OK();
  bool wrote_ok = false;
  if (eio.ok() && short_write.ok()) {
    wrote_ok = std::fwrite(line.data(), 1, line.size(), file_) == line.size();
  } else if (!short_write.ok()) {
    // Injected short write: half the frame reaches the file, like a real
    // mid-record EIO/ENOSPC — then the heal path below must undo it.
    (void)std::fwrite(line.data(), 1, line.size() / 2, file_);
  }
  if (wrote_ok) {
    ++records_appended_;
    valid_length_ += line.size();
    dirty_ = true;
    return Status::OK();
  }
  // Heal: truncate back to the last complete record so the generation
  // stays a valid prefix. Without this, a later successful append would
  // leave intact records after the damage — the mid-file-corruption shape
  // recovery refuses to touch.
  std::clearerr(file_);
  const bool healed =
      std::fflush(file_) == 0 &&
      ::ftruncate(::fileno(file_), static_cast<off_t>(valid_length_)) == 0;
  if (!healed) {
    (void)std::fclose(file_);
    file_ = nullptr;
    return Status::Internal("JournalWriter: append to " + path_ +
                            " failed and the partial record could not be "
                            "truncated away; writer closed");
  }
  if (!eio.ok()) return eio;
  if (!short_write.ok()) return short_write;
  return Status::Internal("JournalWriter: append to " + path_ + " failed");
}

Status JournalWriter::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("JournalWriter: sync after close");
  }
  ST_RETURN_NOT_OK(FaultInjector::Global().Reached(fault::kJournalSync));
  if (!dirty_) return Status::OK();
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return Status::Internal("JournalWriter: fsync of " + path_ + " failed");
  }
  dirty_ = false;
  return Status::OK();
}

Status JournalWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  const Status synced = Sync();
  const bool close_failed = std::fclose(file_) != 0;
  file_ = nullptr;
  ST_RETURN_NOT_OK(synced);
  if (close_failed) {
    return Status::Internal("JournalWriter: close of " + path_ + " failed");
  }
  return Status::OK();
}

}  // namespace store
}  // namespace slicetuner
