// SmallFn: a move-only callable with small-buffer optimization.
//
// std::function heap-allocates every capture larger than its tiny internal
// buffer (16 bytes on libstdc++) and funnels moves/destruction through a
// manager thunk.  The simulator schedules millions of short-lived callbacks
// per run — MAC timers capturing `this`, SIFS responses capturing a frame —
// so that churn dominates the event-queue hot path.  SmallFn stores captures
// up to `Cap` bytes inline (a frame-carrying lambda is 40 bytes) and only
// falls back to the heap beyond that.
//
// Deliberately minimal: no copy, no allocator support, no target_type.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace wlan::util {

template <class Sig, std::size_t Cap = 64>
class SmallFn;

template <class R, class... Args, std::size_t Cap>
class SmallFn<R(Args...), Cap> {
 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= Cap && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      // The common case — lambdas capturing pointers, scalars, frames.
      // manage_ stays null: moves are raw byte copies, destruction a no-op,
      // so the scheduler's per-event overhead is two direct stores.
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s, Args&&... a) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(a)...);
      };
    } else if constexpr (sizeof(Fn) <= Cap &&
                         alignof(Fn) <= alignof(std::max_align_t) &&
                         std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s, Args&&... a) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(a)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        auto* fn = std::launder(reinterpret_cast<Fn*>(self));
        if (op == Op::kMoveTo) ::new (other) Fn(std::move(*fn));
        fn->~Fn();
      };
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* s, Args&&... a) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(s)))(
            std::forward<Args>(a)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        auto** fn = std::launder(reinterpret_cast<Fn**>(self));
        if (op == Op::kMoveTo) {
          ::new (other) Fn*(*fn);
        } else {
          delete *fn;
        }
      };
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(std::move(other)); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kMoveTo, kDestroy };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* self, void* other);

  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void move_from(SmallFn&& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        other.manage_(Op::kMoveTo, other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, Cap);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  // Zero-initialized so whole-buffer moves of partially-filled captures
  // never read indeterminate bytes (also silences GCC's flow analysis).
  alignas(std::max_align_t) unsigned char buf_[Cap] = {};
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace wlan::util
