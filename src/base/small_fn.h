// Move-only callable with inline storage -- the event-queue node pool.
//
// EventQueue previously stored std::function<void()> per event; any capture
// larger than the libstdc++/libc++ small-object buffer (16 bytes) heap-
// allocates, and the hot scheduling lambdas (kernel timers, the sync
// engine's cross-shard delivery closures) all exceed it.  SmallFn trades
// copyability (which the event queue never needed -- an event is built in its
// slot, run there once, destroyed) for a buffer sized to the real captures, so scheduling an
// event allocates nothing.  Oversized or over-aligned callables still fall
// back to the heap transparently.

#ifndef DEMOS_BASE_SMALL_FN_H_
#define DEMOS_BASE_SMALL_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace demos {

template <std::size_t kInlineBytes>
class SmallFn {
  // Any void() callable except SmallFn itself (which moves instead).
  template <typename F>
  static constexpr bool IsCallable =
      !std::is_same_v<std::decay_t<F>, SmallFn> && std::is_invocable_r_v<void, std::decay_t<F>&>;

 public:
  SmallFn() = default;

  template <typename F, typename = std::enable_if_t<IsCallable<F>>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(fn));
  }

  // Build `fn` directly in this (empty) SmallFn's storage: the event queue
  // constructs each callback in its slot this way, so scheduling moves the
  // capture once and dispatch moves it never.
  template <typename F, typename = std::enable_if_t<IsCallable<F>>>
  void Emplace(F&& fn) {
    using Decayed = std::decay_t<F>;
    if constexpr (sizeof(Decayed) <= kInlineBytes &&
                  alignof(Decayed) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (static_cast<void*>(storage_.inline_buf)) Decayed(std::forward<F>(fn));
      invoke_ = [](SmallFn& self) {
        (*std::launder(reinterpret_cast<Decayed*>(self.storage_.inline_buf)))();
      };
      manage_ = [](SmallFn* dst, SmallFn* src) {
        Decayed* obj = std::launder(reinterpret_cast<Decayed*>(src->storage_.inline_buf));
        if (dst != nullptr) {
          ::new (static_cast<void*>(dst->storage_.inline_buf)) Decayed(std::move(*obj));
        }
        obj->~Decayed();
      };
    } else {
      storage_.heap_ptr = new Decayed(std::forward<F>(fn));
      invoke_ = [](SmallFn& self) {
        (*static_cast<Decayed*>(self.storage_.heap_ptr))();
      };
      manage_ = [](SmallFn* dst, SmallFn* src) {
        if (dst != nullptr) {
          dst->storage_.heap_ptr = src->storage_.heap_ptr;
        } else {
          delete static_cast<Decayed*>(src->storage_.heap_ptr);
        }
      };
    }
  }

  SmallFn(SmallFn&& other) noexcept { MoveFrom(std::move(other)); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(*this); }

  // Destroy the held callable, leaving this SmallFn empty.
  void Reset() noexcept {
    if (manage_ != nullptr) {
      manage_(nullptr, this);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  using InvokeFn = void (*)(SmallFn&);
  // dst != nullptr: move-construct src's callable into dst's storage, then
  // destroy src's.  dst == nullptr: just destroy src's callable.
  using ManageFn = void (*)(SmallFn* dst, SmallFn* src);

  void MoveFrom(SmallFn&& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(this, &other);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  union Storage {
    alignas(std::max_align_t) unsigned char inline_buf[kInlineBytes];
    void* heap_ptr;
  };

  Storage storage_;
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace demos

#endif  // DEMOS_BASE_SMALL_FN_H_
