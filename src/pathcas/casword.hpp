// casword<T>: the annotated field type for PathCAS-managed memory (§4,
// "Implicit read()"). Wrapping a node field's type in casword<> makes every
// load go through the PathCAS read() function (which helps in-flight
// operations), and statically prevents unsafe plain writes to fields that
// PathCAS may be modifying concurrently.
//
// T may be a pointer, an integral type, or an enum; values are stored shifted
// left by 2 (see kcas/word.hpp). Signed values round-trip via arithmetic
// shift; unsigned values must fit in 61 bits (checked in debug builds).
#pragma once

#include <cstdint>
#include <type_traits>

#include "kcas/domain.hpp"
#include "kcas/kcas.hpp"
#include "kcas/word.hpp"

namespace pathcas {

namespace detail {

template <typename T>
inline constexpr bool kCaswordCompatible =
    std::is_pointer_v<T> || std::is_integral_v<T> || std::is_enum_v<T>;

template <typename T>
k::word_t encode(T v) {
  static_assert(kCaswordCompatible<T>);
  if constexpr (std::is_pointer_v<T>) {
    return static_cast<k::word_t>(reinterpret_cast<std::uintptr_t>(v)) << 2;
  } else {
    const auto raw = static_cast<k::word_t>(static_cast<std::int64_t>(v));
    if constexpr (std::is_unsigned_v<std::decay_t<T>>) {
      PATHCAS_DCHECK(static_cast<k::word_t>(v) < (1ULL << 61));
    }
    return raw << 2;
  }
}

template <typename T>
T decode(k::word_t w) {
  static_assert(kCaswordCompatible<T>);
  PATHCAS_DCHECK(!k::isDescriptor(w));
  // Arithmetic shift restores sign bits for signed payloads.
  const auto v = static_cast<std::int64_t>(w) >> 2;
  if constexpr (std::is_pointer_v<T>) {
    return reinterpret_cast<T>(static_cast<std::uintptr_t>(v));
  } else {
    return static_cast<T>(v);
  }
}

/// The PathCAS read of one word (encoded): a plain acquire load, the same
/// first load readEncoded() makes. Only a word that holds a descriptor
/// resolves the thread's current domain and helps through it, so a read
/// that meets no operation pays one load and one tag test.
inline k::word_t readWord(k::AtomicWord* addr) {
  const k::word_t w = addr->load(std::memory_order_acquire);
  if (PATHCAS_LIKELY(!k::isDescriptor(w))) return w;
  return k::currentDomain().readEncoded(addr);
}

}  // namespace detail

template <typename T>
class casword {
  static_assert(detail::kCaswordCompatible<T>);

 public:
  casword() : word_(detail::encode(T{})) {}
  explicit casword(T v) : word_(detail::encode(v)) {}

  casword(const casword&) = delete;
  casword& operator=(const casword&) = delete;

  /// The PathCAS read(): one acquire load; only when the word holds a
  /// descriptor does it help that operation, through the calling thread's
  /// current domain (kcas/domain.hpp) — a descriptor reference is only
  /// meaningful in the domain that produced it, so reads of a sharded
  /// structure must run under the owning shard's ScopedDomain.
  T load() const {
    return detail::decode<T>(
        detail::readWord(const_cast<k::AtomicWord*>(&word_)));
  }
  operator T() const { return load(); }  // NOLINT(google-explicit-constructor)

  /// Arrow access for pointer payloads: node->left->key etc.
  T operator->() const
    requires std::is_pointer_v<T>
  {
    return load();
  }

  /// Plain initializing store. ONLY safe while the enclosing node is not yet
  /// published (e.g. constructing a node before the vexec that links it).
  void setInitial(T v) {
    word_.store(detail::encode(v), std::memory_order_release);
  }

  /// Underlying word, for add()/visit() and the HTM fast path.
  k::AtomicWord* addr() { return &word_; }
  const k::AtomicWord* addr() const { return &word_; }

 private:
  k::AtomicWord word_;
};

}  // namespace pathcas
