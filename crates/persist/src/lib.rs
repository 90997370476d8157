//! # nemo-persist — crash-safe session checkpointing
//!
//! Stores **session checkpoints** (`nemo_core::SessionCheckpoint`): the
//! authoritative state of a live interactive session, stored so a user can
//! disconnect and resume *bit-identically* — a restored session makes the
//! same selections and produces the same posteriors as one that was never
//! interrupted. The dataset a session runs over is not stored: it is
//! rebuilt from the catalog, and restore checks the checkpoint against it.
//!
//! ## Guarantees
//!
//! **Writes are crash-safe.** [`write_atomic`] writes to a temporary file
//! in the destination directory, fsyncs it, atomically renames it over the
//! destination, and fsyncs the directory. A crash at any point leaves
//! either the complete old file or the complete new file.
//!
//! **Reads are hostile-input-safe.** Every file carries a magic, a format
//! version, an endianness canary, a file-kind tag, and CRC-32 checksums
//! over the header and every section. Loaders validate framing, length
//! prefixes (with overflow-checked arithmetic, before any allocation), and
//! every tag and presence byte; `NemoSystem::restore` checks the decoded
//! checkpoint against its dataset. Truncation at any
//! length and corruption at any byte yield a typed [`PersistError`] —
//! never a panic, never a silently-wrong load. The fault-injection suite
//! (`tests/persist_fault_injection.rs`) enforces this byte-by-byte.
//!
//! ## Example
//!
//! ```
//! use nemo_core::{IdpConfig, NemoSystem, SimulatedUser};
//! use nemo_data::catalog::toy_text;
//! use nemo_persist::{load_session, save_session, session_to_bytes};
//!
//! let dir = std::env::temp_dir().join(format!("nemo-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("session.nemo");
//!
//! let ds = toy_text(42);
//! let mut nemo = NemoSystem::new(&ds, IdpConfig { n_iterations: 2, ..Default::default() });
//! nemo.step_with_user(&mut SimulatedUser::default()).unwrap();
//! let ckpt = nemo.checkpoint();
//! save_session(&path, &ckpt).unwrap();
//! let loaded = load_session(&path).unwrap();
//! assert_eq!(session_to_bytes(&loaded), session_to_bytes(&ckpt));
//! let resumed = NemoSystem::restore(&ds, &loaded).unwrap();
//! assert_eq!(resumed.iteration(), nemo.iteration());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod format;
pub mod session;
pub mod store;

pub use format::{write_atomic, PersistError};
pub use session::{load_session, save_session, session_from_bytes, session_to_bytes};
pub use store::{EncodedCheckpointStore, FileCheckpointStore};
