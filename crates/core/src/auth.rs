//! Authentication (§2.2).
//!
//! *"The client authenticates itself to the Faucets Server through a
//! userid, password pair. So every user should obtain an account from the
//! Faucets system. … since the FD does not have any accounting information,
//! it contacts the Faucets Central Server again to verify the user's
//! authenticity."*
//!
//! Passwords are stored salted-and-hashed with a from-scratch SHA-256 (the
//! substitution for GSI noted in DESIGN.md — no crypto crates in the
//! dependency budget). Successful authentication mints a session token the
//! daemons verify back against the central server, reproducing the paper's
//! double-verification flow.

use crate::error::{FaucetsError, Result};
use crate::ids::UserId;
use faucets_sim::time::{SimDuration, SimTime};
use rand::Rng;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), implemented from the specification.
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Compute the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Padding: message, 0x80, zeros, 64-bit big-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for chunk in msg.chunks_exact(64) {
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (i, v) in [a, b, c, d, e, f, g, hh].into_iter().enumerate() {
            h[i] = h[i].wrapping_add(v);
        }
    }

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Hex-encode a digest.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// User database and session tokens.
// ---------------------------------------------------------------------------

/// An opaque session token handed to authenticated clients.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct SessionToken(pub String);

struct UserRecord {
    id: UserId,
    salt: [u8; 16],
    password_hash: [u8; 32],
}

struct SessionRecord {
    user: UserId,
    expires: SimTime,
}

/// Bits of a [`UserId`] that count a shard's accounts; a federated
/// shard's tag sits in the [`SHARD_TAG_BITS`] above them.
const USER_SEQ_BITS: u32 = 16;
/// Bits of a [`UserId`] that name the shard which minted it. Tag and
/// sequence together fill the low 32 bits, which is all of a user id that
/// a client-minted job id (`user << 32 | n`) carries.
const SHARD_TAG_BITS: u32 = 16;

/// The Faucets Server's user database with salted password storage and
/// expiring session tokens.
pub struct UserDb {
    by_name: HashMap<String, UserRecord>,
    sessions: HashMap<SessionToken, SessionRecord>,
    /// The next id to mint and the end of this database's id range.
    next_user: u64,
    end_user: u64,
    token_ttl: SimDuration,
}

impl UserDb {
    /// A database issuing tokens valid for `token_ttl`.
    pub fn new(token_ttl: SimDuration) -> Self {
        UserDb {
            by_name: HashMap::new(),
            sessions: HashMap::new(),
            next_user: 0,
            end_user: 1 << (SHARD_TAG_BITS + USER_SEQ_BITS),
            token_ttl,
        }
    }

    /// Mint ids that carry `shard`. Every shard of a federated Central
    /// Server keeps its own accounts, and clients of different shards meet
    /// at shared Faucets Daemons, where a job id is expected to be
    /// grid-unique: two shards that both count their users from 0 hand
    /// their first users the same id, and with it the same job ids. A
    /// shard's ids are `tag << 16 | n`, the tag being 16 bits of the
    /// SHA-256 of its name (shard names are unique in a federation; two
    /// names sharing a tag is a 1-in-65,536 accident per pair). Call before
    /// the first account is created.
    pub fn mint_ids_for_shard(&mut self, shard: &str) {
        assert!(self.by_name.is_empty(), "ids are already being minted");
        let h = sha256(shard.as_bytes());
        let tag = u64::from(u16::from_be_bytes([h[0], h[1]]));
        self.next_user = tag << USER_SEQ_BITS;
        self.end_user = (tag + 1) << USER_SEQ_BITS;
    }

    fn hash_password(salt: &[u8; 16], password: &str) -> [u8; 32] {
        let mut buf = Vec::with_capacity(16 + password.len());
        buf.extend_from_slice(salt);
        buf.extend_from_slice(password.as_bytes());
        sha256(&buf)
    }

    /// Create a user account. Fails if the name is taken.
    pub fn add_user<R: Rng + ?Sized>(
        &mut self,
        name: &str,
        password: &str,
        rng: &mut R,
    ) -> Result<UserId> {
        if self.by_name.contains_key(name) {
            return Err(FaucetsError::AlreadyExists(format!("user '{name}'")));
        }
        if self.next_user == self.end_user {
            return Err(FaucetsError::UserIdsExhausted);
        }
        let id = UserId(self.next_user);
        self.next_user += 1;
        let mut salt = [0u8; 16];
        rng.fill(&mut salt);
        let password_hash = Self::hash_password(&salt, password);
        self.by_name.insert(
            name.to_string(),
            UserRecord {
                id,
                salt,
                password_hash,
            },
        );
        Ok(id)
    }

    /// Authenticate with userid/password; mints a session token on success.
    pub fn authenticate<R: Rng + ?Sized>(
        &mut self,
        name: &str,
        password: &str,
        now: SimTime,
        rng: &mut R,
    ) -> Result<(UserId, SessionToken)> {
        let rec = self
            .by_name
            .get(name)
            .ok_or_else(|| FaucetsError::AuthFailed(name.to_string()))?;
        if Self::hash_password(&rec.salt, password) != rec.password_hash {
            return Err(FaucetsError::AuthFailed(name.to_string()));
        }
        let mut raw = [0u8; 24];
        rng.fill(&mut raw);
        let token = SessionToken(hex(&sha256(&raw)));
        self.sessions.insert(
            token.clone(),
            SessionRecord {
                user: rec.id,
                expires: now.saturating_add(self.token_ttl),
            },
        );
        Ok((rec.id, token))
    }

    /// Verify a token (the FD→FS re-verification step of §2.2). Returns the
    /// user it belongs to if it is live at `now`.
    pub fn verify(&self, token: &SessionToken, now: SimTime) -> Result<UserId> {
        match self.sessions.get(token) {
            Some(s) if s.expires >= now => Ok(s.user),
            _ => Err(FaucetsError::InvalidToken),
        }
    }

    /// Drop expired sessions.
    pub fn sweep(&mut self, now: SimTime) {
        self.sessions.retain(|_, s| s.expires >= now);
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.by_name.len()
    }

    /// Number of live sessions (including not-yet-swept expired ones).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sha256_known_vectors() {
        // FIPS 180-4 / NIST test vectors.
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A long input crossing several blocks.
        let million_a = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&million_a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn password_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut db = UserDb::new(SimDuration::from_hours(1));
        let uid = db.add_user("alice", "hunter2", &mut rng).unwrap();
        let (got, token) = db
            .authenticate("alice", "hunter2", SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(got, uid);
        assert_eq!(db.verify(&token, SimTime::from_secs(10)).unwrap(), uid);
    }

    #[test]
    fn wrong_password_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut db = UserDb::new(SimDuration::from_hours(1));
        db.add_user("alice", "hunter2", &mut rng).unwrap();
        assert!(matches!(
            db.authenticate("alice", "hunter3", SimTime::ZERO, &mut rng),
            Err(FaucetsError::AuthFailed(_))
        ));
        assert!(db
            .authenticate("bob", "x", SimTime::ZERO, &mut rng)
            .is_err());
    }

    #[test]
    fn duplicate_usernames_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut db = UserDb::new(SimDuration::from_hours(1));
        db.add_user("alice", "a", &mut rng).unwrap();
        assert!(db.add_user("alice", "b", &mut rng).is_err());
        assert_eq!(db.user_count(), 1);
    }

    #[test]
    fn tokens_expire() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut db = UserDb::new(SimDuration::from_secs(100));
        db.add_user("alice", "pw", &mut rng).unwrap();
        let (_, token) = db
            .authenticate("alice", "pw", SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(db.verify(&token, SimTime::from_secs(100)).is_ok());
        assert!(matches!(
            db.verify(&token, SimTime::from_secs(101)),
            Err(FaucetsError::InvalidToken)
        ));
        db.sweep(SimTime::from_secs(101));
        assert_eq!(db.session_count(), 0);
    }

    #[test]
    fn forged_tokens_rejected() {
        let db = UserDb::new(SimDuration::from_secs(100));
        assert!(db
            .verify(&SessionToken("deadbeef".into()), SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn same_password_different_users_different_hashes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut db = UserDb::new(SimDuration::from_hours(1));
        db.add_user("alice", "samepw", &mut rng).unwrap();
        db.add_user("bob", "samepw", &mut rng).unwrap();
        let a = db.by_name["alice"].password_hash;
        let b = db.by_name["bob"].password_hash;
        assert_ne!(a, b, "salting must differentiate identical passwords");
    }
}
