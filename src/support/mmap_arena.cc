#include "support/mmap_arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/fault_inject.h"

namespace opim {

namespace {

int AdviceFlag(MmapArena::Advice advice) {
  switch (advice) {
    case MmapArena::Advice::kNormal:
      return MADV_NORMAL;
    case MmapArena::Advice::kSequential:
      return MADV_SEQUENTIAL;
    case MmapArena::Advice::kRandom:
      return MADV_RANDOM;
    case MmapArena::Advice::kWillNeed:
      return MADV_WILLNEED;
  }
  return MADV_NORMAL;
}

}  // namespace

Result<std::shared_ptr<MmapArena>> MmapArena::MapFile(const std::string& path,
                                                      Advice advice) {
  if (OPIM_FAULT_POINT("io.mmap_fail")) {
    return Status::IOError("injected mmap failure: " + path);
  }
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Status::IOError("cannot stat " + path + ": " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return std::shared_ptr<MmapArena>(new MmapArena(nullptr, 0, true));
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping holds its own reference to the file.
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot mmap " + path + ": " +
                           std::strerror(errno));
  }
  auto arena = std::shared_ptr<MmapArena>(
      new MmapArena(static_cast<uint8_t*>(addr), size, true));
  if (advice != Advice::kNormal) arena->Advise(0, size, advice);
  return arena;
}

MmapArena::~MmapArena() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void MmapArena::Advise(uint64_t offset, uint64_t length,
                       Advice advice) const {
  if (data_ == nullptr || offset >= size_) return;
  if (length > size_ - offset) length = size_ - offset;
  // madvise wants page-aligned addresses; round the start down. Failure
  // is deliberately ignored — a rejected hint cannot affect correctness.
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  uint64_t start = offset & ~(page - 1);
  (void)::madvise(data_ + start, length + (offset - start),
                  AdviceFlag(advice));
}

}  // namespace opim
