// Overload-protection primitives for the bench driver's open loop: a bounded
// admission queue with deadline shedding, and the adaptive flush policy that
// keeps a partially-filled netting window from holding an op past its flush
// deadline at low offered load (the cold-window hang).
//
// Both classes are pure logic over caller-supplied timestamps — they never
// read a clock themselves. The driver feeds them TtlClock::nowNs()
// (util/timing.hpp), so tests pin the virtual clock and every admit/shed/
// flush decision replays deterministically, with no sleeps and no real-time
// margins (tests/test_admission.cpp).
//
// Accounting contract (the identity every trial's JSON row must satisfy):
//
//   offered == admitted + shed + rejected
//
//   offered   every scheduled arrival handed to offer()
//   rejected  arrivals that found the queue at its qdepth bound (never
//             enqueued, never executed)
//   shed      enqueued arrivals whose queue wait exceeded the deadline at
//             dequeue time, plus everything still queued at trial stop
//             (shedRemaining) — the ops a deadline-bound client has already
//             given up on
//   admitted  pops that returned kAdmit; the driver executes exactly one op
//             per admit, so admitted == the trial's executed-op count
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

namespace pathcas::bench {

/// Per-worker bounded admission queue over scheduled arrival instants (ns).
/// qdepth == 0 means unbounded (rejection off); deadlineNs == 0 means never
/// shed. Single-threaded by design: each driver worker owns one.
class AdmissionQueue {
 public:
  AdmissionQueue(int qdepth, std::int64_t deadlineNs)
      : qdepth_(qdepth > 0 ? static_cast<std::size_t>(qdepth) : 0),
        deadlineNs_(deadlineNs > 0 ? static_cast<std::uint64_t>(deadlineNs)
                                   : 0) {}

  enum class Pop { kEmpty, kShed, kAdmit };

  /// Offer one scheduled arrival. Returns false iff the queue was full (the
  /// arrival is counted as rejected and dropped).
  bool offer(std::uint64_t arrivalNs) {
    ++offered_;
    if (qdepth_ != 0 && q_.size() >= qdepth_) {
      ++rejected_;
      return false;
    }
    q_.push_back(arrivalNs);
    return true;
  }

  /// Pop the oldest queued arrival at time `nowNs`. kAdmit stores the op's
  /// scheduled arrival into *arrivalNs (its latency origin); kShed means the
  /// op waited past the deadline and was dropped — the caller should try
  /// again for the next queued op.
  Pop pop(std::uint64_t nowNs, std::uint64_t* arrivalNs) {
    if (q_.empty()) return Pop::kEmpty;
    const std::uint64_t a = q_.front();
    q_.pop_front();
    if (deadlineNs_ != 0 && nowNs > a && nowNs - a > deadlineNs_) {
      ++shed_;
      return Pop::kShed;
    }
    ++admitted_;
    *arrivalNs = a;
    return Pop::kAdmit;
  }

  /// Trial stop: everything still queued is shed (a deadline-bound client
  /// has abandoned it), keeping the accounting identity exact.
  void shedRemaining() {
    shed_ += q_.size();
    q_.clear();
  }

  std::size_t size() const { return q_.size(); }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  std::deque<std::uint64_t> q_;
  std::size_t qdepth_;        // 0 = unbounded
  std::uint64_t deadlineNs_;  // 0 = never shed
  std::uint64_t offered_ = 0, admitted_ = 0, shed_ = 0, rejected_ = 0;
};

/// Latency-aware adaptive batch-flush policy for the driver's netting
/// window: track the oldest buffered op's age from its scheduled arrival
/// (the instant goodput judges it from), demand a flush early enough for
/// that op to complete by the deadline, and adapt the window width — halve
/// under deadline pressure (the offered rate can't fill the window in time,
/// so stop waiting for it), double back toward the configured maximum when
/// windows fill before their deadline.
class AdaptiveFlushPolicy {
 public:
  AdaptiveFlushPolicy(std::size_t maxWindow, std::uint64_t deadlineNs)
      : maxW_(maxWindow > 0 ? maxWindow : 1),
        curW_(maxW_),
        minW_(maxW_ < 2 ? maxW_ : 2),
        deadlineNs_(deadlineNs) {}

  bool timed() const { return deadlineNs_ != 0; }

  /// The first op of a (previously empty) window was scheduled to arrive
  /// at `arrivalNs`.
  void windowOpened(std::uint64_t arrivalNs) { oldestNs_ = arrivalNs; }

  /// The last flush committed `ops` ops in `ns`.
  void noteCommit(std::uint64_t ns, std::size_t ops) {
    commitNsPerOp_ = (ns + ops - 1) / ops;
  }

  /// True when the window, holding `ops` ops, must flush at `nowNs` for its
  /// oldest op to complete by the deadline: the op's age plus the commit
  /// time the last flush's per-op cost predicts reaches the deadline.
  /// Meaningless (always false) when untimed or while the window is empty —
  /// the caller gates on a non-empty buffer.
  bool flushDue(std::uint64_t nowNs, std::size_t ops) const {
    return deadlineNs_ != 0 &&
           nowNs + commitNsPerOp_ * ops >= oldestNs_ + deadlineNs_;
  }

  /// Current adaptive window width (ops buffered before a size-triggered
  /// flush). Always in [min(2, max), max].
  std::size_t window() const { return curW_; }

  /// A window filled to width before its deadline: headroom, regrow.
  void noteFull() {
    curW_ = curW_ * 2 < maxW_ ? curW_ * 2 : maxW_;
    ++fullFlushes_;
  }

  /// A partial window aged out: deadline pressure, shrink.
  void noteDeadline() {
    curW_ = curW_ / 2 > minW_ ? curW_ / 2 : minW_;
    ++deadlineFlushes_;
  }

  std::uint64_t deadlineFlushes() const { return deadlineFlushes_; }
  std::uint64_t fullFlushes() const { return fullFlushes_; }

 private:
  std::size_t maxW_, curW_, minW_;
  std::uint64_t deadlineNs_;
  std::uint64_t oldestNs_ = 0, commitNsPerOp_ = 0;
  std::uint64_t deadlineFlushes_ = 0, fullFlushes_ = 0;
};

}  // namespace pathcas::bench
