#include "common/fs_util.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace slicetuner {

Status MkDirRecursive(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix.push_back(path[i]);
      continue;
    }
    if (!prefix.empty() && prefix != ".") {
      struct ::stat st;
      if (::stat(prefix.c_str(), &st) == 0) {
        if (!S_ISDIR(st.st_mode)) {
          return Status::AlreadyExists("MkDirRecursive: not a directory: " +
                                       prefix);
        }
      } else if (::mkdir(prefix.c_str(), 0755) != 0) {
        return Status::Internal("MkDirRecursive: cannot create " + prefix);
      }
    }
    if (i < path.size()) prefix.push_back('/');
  }
  return Status::OK();
}

std::string ResultsDir() {
  const char* env = std::getenv("SLICETUNER_RESULTS_DIR");
  const std::string dir = (env != nullptr && env[0] != '\0') ? env : "results";
  ST_CHECK_OK(MkDirRecursive(dir));
  return dir;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("ReadFileToString: cannot open " + path);
  }
  // One read sized by fstat; the loop only picks up bytes appended since.
  std::string content;
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0) {
    content.resize(static_cast<size_t>(st.st_size));
    content.resize(std::fread(content.data(), 1, content.size(), f));
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("ReadFileToString: read failed for " + path);
  }
  return content;
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("WriteStringToFile: cannot open " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool write_error = std::ferror(f) != 0 || written != content.size();
  if (std::fclose(f) != 0 || write_error) {
    return Status::Internal("WriteStringToFile: write failed for " + path);
  }
  return Status::OK();
}

namespace {

// Slicing-by-8 tables: t[0] is the bytewise CRC-32 table, and t[k][b] is
// the CRC contribution of byte b followed by k zero bytes, so one step
// folds eight input bytes with eight independent lookups.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Crc32Table() {
  static const Crc32Tables& tables = *[] {
    auto* tables = new Crc32Tables;
    uint32_t(&t)[8][256] = tables->t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return tables;
  }();
  return tables;
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// fsync on a directory makes a completed rename durable. Some filesystems
// refuse to fsync directories; that is a durability (not correctness) gap,
// so failures here are swallowed.
void BestEffortSyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const uint32_t(&t)[8][256] = Crc32Table().t;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  // Little-endian words assembled bytewise: no alignment or host-order
  // assumption, and compilers fold each into one load.
  const auto word = [](const unsigned char* p) {
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
  };
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = word(bytes) ^ c;
    const uint32_t hi = word(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::string& data, uint32_t seed) {
  return Crc32(data.data(), data.size(), seed);
}

Status WriteFileAtomic(const std::string& path, const std::string& content,
                       const AtomicWriteHooks* hooks) {
  const std::string tmp = path + ".tmp";
  if (hooks != nullptr && hooks->before_write) {
    ST_RETURN_NOT_OK(hooks->before_write());
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("WriteFileAtomic: cannot open " + tmp);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool failed = std::ferror(f) != 0 || written != content.size();
  failed = std::fflush(f) != 0 || failed;
  if (!failed) failed = ::fsync(::fileno(f)) != 0;
  if (std::fclose(f) != 0 || failed) {
    std::remove(tmp.c_str());
    return Status::Internal("WriteFileAtomic: write failed for " + tmp);
  }
  if (hooks != nullptr && hooks->pre_rename) {
    const Status aborted = hooks->pre_rename();
    if (!aborted.ok()) {
      std::remove(tmp.c_str());
      return aborted;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("WriteFileAtomic: rename to " + path + " failed");
  }
  if (hooks != nullptr && hooks->post_rename) {
    ST_RETURN_NOT_OK(hooks->post_rename());
  }
  BestEffortSyncDir(ParentDir(path));
  return Status::OK();
}

Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("SyncFile: cannot open " + path);
  const bool failed = ::fsync(fd) != 0;
  ::close(fd);
  if (failed) return Status::Internal("SyncFile: fsync failed for " + path);
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) != 0) {
    return Status::NotFound("RemoveFile: cannot remove " + path);
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("ListDirFiles: cannot open " + dir);
  }
  std::vector<std::string> names;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct ::stat st;
    if (::stat((dir + "/" + name).c_str(), &st) != 0) continue;
    if (S_ISREG(st.st_mode)) names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace slicetuner
