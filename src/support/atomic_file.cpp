#include "support/atomic_file.hpp"

#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "support/error.hpp"

namespace distconv::support {

void write_file_atomic(const std::string& path, const void* data, std::size_t n) {
  // The scratch name carries the writer's pid: concurrent processes
  // publishing to the same path (e.g. a shared checkpoint under a parallel
  // test run) must not share a tmp file, or one writer's rename
  // steals the other's data mid-flight and the loser's rename fails ENOENT.
  // Last rename wins; every rename sees its own complete tmp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  DC_REQUIRE(f != nullptr, "cannot open '", tmp, "' for writing: ",
             std::strerror(errno));
  bool ok = n == 0 || std::fwrite(data, 1, n, f) == n;
  // Data must be durable *before* the rename publishes the new name;
  // otherwise a crash could leave a fully-renamed file with torn contents —
  // exactly the window atomic replacement exists to close.
  ok = ok && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    DC_FAIL("write to '", tmp, "' failed: ", std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    DC_FAIL("rename '", tmp, "' -> '", path, "' failed: ", std::strerror(err));
  }
}

}  // namespace distconv::support
