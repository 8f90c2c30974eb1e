#include "trace/trace_file.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/expect.hpp"
#include "trace/tag.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CHOIR_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace choir::trace {

namespace {
constexpr char kMagic[8] = {'C', 'H', 'O', 'I', 'R', 'T', 'R', 'C'};

/// memcpy-based field write and read: the 87-byte record stride leaves
/// every multi-byte field unaligned somewhere, and a cast-and-deref would
/// be UB there; memcpy compiles to a single store or load on x86-64/ARM64.
/// Host little-endian assumed for this research codebase.
template <typename T>
void put_at(std::uint8_t* p, T value) {
  std::memcpy(p, &value, sizeof(value));
}

template <typename T>
T get_at(const std::uint8_t* p) {
  T value{};
  std::memcpy(&value, p, sizeof(value));
  return value;
}

/// Frames above this are not representable on any link the simulator
/// models; a larger wire_len in a file is corruption, not jumbo frames.
constexpr std::uint32_t kMaxPlausibleWireLen = 1u << 24;

// Field offsets within one on-disk record.
constexpr std::size_t kOffTimestamp = 0;
constexpr std::size_t kOffWireLen = 8;
constexpr std::size_t kOffHeaderLen = 12;
constexpr std::size_t kOffHasTrailer = 14;
constexpr std::size_t kOffHeader = 15;
constexpr std::size_t kOffTrailer = kOffHeader + pktio::kMaxHeaderBytes;
constexpr std::size_t kOffPayloadToken = kOffTrailer + pktio::kTrailerBytes;
static_assert(kOffPayloadToken + 8 == kTraceRecordBytes);

/// The record encoder: the inverse of MappedCapture::record, through the
/// same offsets. Every byte of the record is written.
void encode_record(const CaptureRecord& r, std::uint8_t* p) {
  put_at<std::int64_t>(p + kOffTimestamp, r.timestamp);
  put_at<std::uint32_t>(p + kOffWireLen, r.wire_len);
  put_at<std::uint16_t>(p + kOffHeaderLen, r.header_len);
  put_at<std::uint8_t>(p + kOffHasTrailer, r.has_trailer ? 1 : 0);
  std::memcpy(p + kOffHeader, r.header.data(), r.header.size());
  std::memcpy(p + kOffTrailer, r.trailer.data(), r.trailer.size());
  put_at<std::uint64_t>(p + kOffPayloadToken, r.payload_token);
}

/// Records encoded per write() call (about 350 KB per chunk).
constexpr std::size_t kWriteChunkRecords = 4096;
}  // namespace

void write_trace(const Capture& capture, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHOIR_EXPECT(out.good(), "cannot open trace file for writing: " + path);
  std::uint8_t header[kTraceHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  put_at<std::uint32_t>(header + 8, kTraceVersion);
  put_at<std::uint64_t>(header + 12, capture.size());
  out.write(reinterpret_cast<const char*>(header), sizeof(header));

  const std::vector<CaptureRecord>& records = capture.records();
  std::vector<std::uint8_t> chunk(
      std::min(records.size(), kWriteChunkRecords) * kTraceRecordBytes);
  for (std::size_t begin = 0; begin < records.size();
       begin += kWriteChunkRecords) {
    const std::size_t n = std::min(records.size() - begin, kWriteChunkRecords);
    for (std::size_t k = 0; k < n; ++k) {
      encode_record(records[begin + k], chunk.data() + k * kTraceRecordBytes);
    }
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(n * kTraceRecordBytes));
  }
  CHOIR_EXPECT(out.good(), "write failed for trace file: " + path);
}

// ---- MappedCapture -----------------------------------------------------

namespace {
/// The whole file, read into memory (the loader's path when mapping is
/// unavailable or fails).
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CHOIR_CHECK_FORMAT(in.good(), "cannot open trace file: " + path);
  const std::streamoff end = in.seekg(0, std::ios::end).tellg();
  std::vector<std::uint8_t> bytes(end > 0 ? static_cast<std::size_t>(end) : 0);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}
}  // namespace

MappedCapture::MappedCapture(const std::string& path) : path_(path) {
  load();
}

void MappedCapture::load() {
  std::size_t len = 0;
#if CHOIR_TRACE_HAVE_MMAP
  const int fd = ::open(path_.c_str(), O_RDONLY);
  CHOIR_CHECK_FORMAT(fd >= 0, "cannot open trace file: " + path_);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw FormatError("cannot open trace file: " + path_);
  }
  len = static_cast<std::size_t>(st.st_size);
  // An empty file cannot be mapped; the buffer path below rejects it.
  void* map = len > 0 ? ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0)
                      : MAP_FAILED;
  ::close(fd);
  if (map != MAP_FAILED) {
    map_ = map;
    map_len_ = len;
    bytes_ = static_cast<const std::uint8_t*>(map);
  }
#endif
  if (map_ == nullptr) {
    // Mapping failed (special filesystem, resource limit) or is
    // unavailable: decode the same bytes from an owned copy.
    owned_ = read_file(path_);
    bytes_ = owned_.data();
    len = owned_.size();
  }
  try {
    CHOIR_CHECK_FORMAT(len >= 8 && std::memcmp(bytes_, kMagic, 8) == 0,
                       "bad trace magic: " + path_);
    CHOIR_CHECK_FORMAT(len >= 12, "truncated trace header: " + path_);
    const auto version = get_at<std::uint32_t>(bytes_ + 8);
    CHOIR_CHECK_FORMAT(version == kTraceVersion,
                       "unsupported trace version " + std::to_string(version) +
                           ": " + path_);
    CHOIR_CHECK_FORMAT(len >= kTraceHeaderBytes,
                       "truncated trace header: " + path_);
    // Validate the declared count against the actual file size before
    // trusting it for any offset or allocation.
    count_ = get_at<std::uint64_t>(bytes_ + 12);
    CHOIR_CHECK_FORMAT(count_ <= (len - kTraceHeaderBytes) / kTraceRecordBytes,
                       "trace record count exceeds file size: " + path_);
    // Validate every record's sanity fields up front (one pass over two
    // fields per record) so the random-access accessors can stay
    // check-free on the hot path. The messages are built only on failure.
    for (std::uint64_t i = 0; i < count_; ++i) {
      const std::uint8_t* r = record_ptr(i);
      const auto header_len = get_at<std::uint16_t>(r + kOffHeaderLen);
      const auto wire_len = get_at<std::uint32_t>(r + kOffWireLen);
      CHOIR_CHECK_FORMAT(header_len <= pktio::kMaxHeaderBytes,
                         "trace record " + std::to_string(i) +
                             " header_len exceeds maximum: " + path_);
      CHOIR_CHECK_FORMAT(
          wire_len <= kMaxPlausibleWireLen && wire_len >= header_len,
          "trace record " + std::to_string(i) +
              " has implausible wire_len: " + path_);
    }
  } catch (...) {
    unmap();
    throw;
  }
}

void MappedCapture::unmap() noexcept {
#if CHOIR_TRACE_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
}

MappedCapture::~MappedCapture() { unmap(); }

MappedCapture::MappedCapture(MappedCapture&& other) noexcept
    : path_(std::move(other.path_)),
      map_(other.map_),
      map_len_(other.map_len_),
      owned_(std::move(other.owned_)),
      bytes_(other.bytes_),
      count_(other.count_) {
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.bytes_ = nullptr;
  other.count_ = 0;
}

MappedCapture& MappedCapture::operator=(MappedCapture&& other) noexcept {
  if (this != &other) {
    unmap();
    path_ = std::move(other.path_);
    map_ = other.map_;
    map_len_ = other.map_len_;
    owned_ = std::move(other.owned_);
    bytes_ = other.bytes_;
    count_ = other.count_;
    other.map_ = nullptr;
    other.map_len_ = 0;
    other.bytes_ = nullptr;
    other.count_ = 0;
  }
  return *this;
}

const std::uint8_t* MappedCapture::record_ptr(std::size_t i) const {
  return bytes_ + kTraceHeaderBytes + i * kTraceRecordBytes;
}

Ns MappedCapture::timestamp(std::size_t i) const {
  return get_at<std::int64_t>(record_ptr(i) + kOffTimestamp);
}

core::PacketId MappedCapture::raw_packet_id(std::size_t i) const {
  const std::uint8_t* r = record_ptr(i);
  if (get_at<std::uint8_t>(r + kOffHasTrailer) != 0) {
    if (const auto id = trailer_packet_id(r + kOffTrailer)) return *id;
  }
  return untagged_packet_id(get_at<std::uint64_t>(r + kOffPayloadToken));
}

CaptureRecord MappedCapture::record(std::size_t i) const {
  const std::uint8_t* p = record_ptr(i);
  CaptureRecord r;
  r.timestamp = get_at<std::int64_t>(p + kOffTimestamp);
  r.wire_len = get_at<std::uint32_t>(p + kOffWireLen);
  r.header_len = get_at<std::uint16_t>(p + kOffHeaderLen);
  r.has_trailer = get_at<std::uint8_t>(p + kOffHasTrailer) != 0;
  std::memcpy(r.header.data(), p + kOffHeader, r.header.size());
  std::memcpy(r.trailer.data(), p + kOffTrailer, r.trailer.size());
  r.payload_token = get_at<std::uint64_t>(p + kOffPayloadToken);
  return r;
}

core::Trial MappedCapture::to_trial(Ns origin) const {
  core::Trial trial;
  trial.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    trial.push_back(
        core::TrialPacket{raw_packet_id(i), timestamp(i) - origin});
  }
  trial.make_occurrences_unique();
  return trial;
}

Capture MappedCapture::materialize() const {
  Capture capture(path_);
  capture.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) capture.append(record(i));
  return capture;
}

}  // namespace choir::trace
