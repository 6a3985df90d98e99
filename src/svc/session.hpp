// One accepted connection's state machine: a nonblocking fd, the incremental
// frame decoder for inbound bytes, a chunked pending-output queue with
// vectored (writev-style) flushing and partial-write handling, and the
// per-session admission/idle bookkeeping the reactor needs. All mutation
// happens on the owning reactor's IO thread; the store coordinator only holds a
// shared_ptr so a session outlives any request still executing against it.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "svc/wire.hpp"

namespace chameleon::svc {

/// Recycles output chunks between sessions of one reactor so a busy serving
/// loop stops paying a heap allocation per response burst. Single-threaded
/// by design (owned and touched only by the reactor's IO thread).
class BufferPool {
 public:
  explicit BufferPool(std::size_t max_buffers = 64) : cap_(max_buffers) {}

  std::vector<std::uint8_t> get() {
    if (free_.empty()) return {};
    std::vector<std::uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    return buf;
  }

  void put(std::vector<std::uint8_t>&& buf) {
    if (free_.size() >= cap_ || buf.capacity() == 0) return;
    free_.push_back(std::move(buf));
  }

  std::size_t size() const { return free_.size(); }

 private:
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t cap_;
};

class Session {
 public:
  enum class IoResult {
    kOk,         ///< made progress; more may be pending
    kWouldBlock, ///< EAGAIN — wait for the next epoll event
    kEof,        ///< peer closed its write side
    kError,      ///< socket error; tear the session down
  };

  /// `pool` (optional) recycles output chunks; must outlive the session and
  /// be touched only from the owning IO thread.
  Session(int fd, std::uint64_t id, std::uint32_t max_payload,
          BufferPool* pool = nullptr);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Read whatever the socket holds into the decoder (loops until EAGAIN).
  /// Returns kEof/kError when the connection is done; updates last_activity
  /// and adds the bytes read to *bytes_read.
  IoResult read_some(std::uint64_t* bytes_read);

  /// Queue bytes/a frame for transmission. Responses enqueued back to back
  /// batch into shared output chunks, so one flush can push many frames with
  /// a single vectored write.
  void enqueue(const std::vector<std::uint8_t>& bytes);
  void enqueue(const Frame& frame);

  /// Push pending output to the socket with one sendmsg over up to
  /// kMaxFlushIov chunks per syscall. Returns kOk with pending() == 0 when
  /// fully flushed, kWouldBlock when the kernel buffer filled (arm EPOLLOUT),
  /// kError on a broken pipe. A short write mid-iovec leaves the byte cursor
  /// exactly where the kernel stopped — never re-sending or skipping bytes.
  /// Adds bytes written to *bytes_written.
  IoResult flush(std::uint64_t* bytes_written);

  bool pending() const { return pending_bytes_ > 0; }
  std::size_t pending_bytes() const { return pending_bytes_; }

  /// Close the fd now (idempotent). Outstanding worker jobs see closed() and
  /// drop their completions.
  void close();
  /// Detach the fd without closing it and mark the session closed(). The
  /// caller owns the returned fd (-1 if already closed). The reactor uses
  /// this to defer the ::close past the current epoll batch so the kernel
  /// cannot recycle the fd number while stale events for it are still queued.
  int release_fd();
  bool closed() const { return fd_ < 0; }

  int fd() const { return fd_; }
  std::uint64_t id() const { return id_; }
  FrameDecoder& decoder() { return decoder_; }

  /// Chunks flushed per sendmsg call are capped: IOV_MAX is overkill and a
  /// small fixed array keeps the hot path allocation-free.
  static constexpr std::size_t kMaxFlushIov = 16;
  /// A chunk that grew past this stops accepting further frames (the next
  /// enqueue opens a fresh chunk), bounding per-chunk memcpy on flush.
  static constexpr std::size_t kChunkTarget = 64 * 1024;

  // --- reactor bookkeeping (IO thread only) --------------------------------
  std::size_t inflight = 0;   ///< admitted requests awaiting a response
  bool want_write = false;    ///< EPOLLOUT currently armed
  bool peer_gone = false;     ///< read side saw EOF/error; close when drained
  std::chrono::steady_clock::time_point last_activity;

 private:
  /// Tail chunk with room, opening a fresh one when needed.
  std::vector<std::uint8_t>& tail_chunk();
  void recycle_head();

  int fd_;
  std::uint64_t id_;
  FrameDecoder decoder_;
  BufferPool* pool_;
  /// Pending output as a queue of chunks; head_off_ is the flush cursor
  /// inside the front chunk. deque: chunk handles never move on push_back.
  std::deque<std::vector<std::uint8_t>> out_;
  std::size_t head_off_ = 0;
  std::size_t pending_bytes_ = 0;
};

}  // namespace chameleon::svc
