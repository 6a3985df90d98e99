#include "durability/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace chameleon::durability {

MappedFile::MappedFile(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + path.string() + ": " +
                             std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot stat " + path.string() + ": " +
                             std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {  // mmap rejects a zero length
    // MAP_POPULATE maps the whole (usually page-cached) file up front, in
    // one call instead of one page fault per 4 KiB.
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                     fd, 0);
    if (p == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot map " + path.string() + ": " +
                               std::strerror(err));
    }
    data_ = static_cast<const std::uint8_t*>(p);
  }
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

}  // namespace chameleon::durability
