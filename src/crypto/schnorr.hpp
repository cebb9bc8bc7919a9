#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "crypto/sha256.hpp"
#include "wire/buffer.hpp"

namespace arpsec::crypto {

/// Schnorr signatures over a prime-order subgroup of Z_p*.
///
/// SIMULATION-GRADE ONLY: the group order is ~2^61 (chosen so all modular
/// arithmetic fits in unsigned __int128), which gives nowhere near the
/// security of the DSA-1024/RSA keys S-ARP and TARP use in the paper's
/// setting. What the reproduction needs is faithful *protocol* behaviour —
/// real keys, real sign/verify operations that fail on any forged byte, and
/// wire-format signatures of realistic shape — while the *cost* of
/// 2007-class asymmetric crypto is charged through crypto::CostModel.
/// See DESIGN.md §2 for the substitution rationale.
class SchnorrGroup {
public:
    /// The shared group parameters (p, q, g). Constructed deterministically
    /// from a fixed Mersenne prime q = 2^61 - 1 by searching for the
    /// smallest k with p = k*q + 1 prime; self-verified with Miller-Rabin.
    static const SchnorrGroup& standard();

    [[nodiscard]] std::uint64_t p() const { return p_; }
    [[nodiscard]] std::uint64_t q() const { return q_; }
    [[nodiscard]] std::uint64_t g() const { return g_; }

    [[nodiscard]] std::uint64_t pow_mod_p(std::uint64_t base, std::uint64_t exp) const;
    [[nodiscard]] std::uint64_t mul_mod_p(std::uint64_t a, std::uint64_t b) const;

private:
    SchnorrGroup();
    std::uint64_t p_;
    std::uint64_t q_;
    std::uint64_t g_;
};

struct Signature {
    std::uint64_t e = 0;  // challenge
    std::uint64_t s = 0;  // response

    static constexpr std::size_t kWireSize = 16;
    [[nodiscard]] wire::Bytes serialize() const;
    static Signature deserialize(std::span<const std::uint8_t> data);
    bool operator==(const Signature&) const = default;
};

class PublicKey {
public:
    PublicKey() = default;
    explicit PublicKey(std::uint64_t y) : y_(y) {}

    [[nodiscard]] std::uint64_t y() const { return y_; }
    [[nodiscard]] bool valid() const { return y_ != 0; }

    /// Verifies `sig` over `message`.
    [[nodiscard]] bool verify(std::span<const std::uint8_t> message, const Signature& sig) const;

    static constexpr std::size_t kWireSize = 8;
    [[nodiscard]] wire::Bytes serialize() const;
    static PublicKey deserialize(std::span<const std::uint8_t> data);

    bool operator==(const PublicKey&) const = default;

private:
    std::uint64_t y_ = 0;
};

class KeyPair {
public:
    /// Derives a key pair deterministically from a seed (each simulated
    /// principal uses its stable node id as seed material).
    static KeyPair derive(std::uint64_t seed);

    [[nodiscard]] const PublicKey& public_key() const { return pub_; }

    /// Signs `message` with a deterministic (RFC 6979-style) nonce.
    [[nodiscard]] Signature sign(std::span<const std::uint8_t> message) const;

private:
    KeyPair(std::uint64_t sk, PublicKey pub) : sk_(sk), pub_(pub) {}
    std::uint64_t sk_ = 0;
    PublicKey pub_;
};

/// Deterministic 64-bit Miller-Rabin primality test (exact for all 64-bit
/// inputs with the standard witness set). Exposed for tests.
[[nodiscard]] bool is_prime_u64(std::uint64_t n);

}  // namespace arpsec::crypto
