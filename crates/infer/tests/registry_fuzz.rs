//! Property fuzz of the model registry's validate-before-publish and
//! verify-on-load gates.
//!
//! The registry is the server's armor against bad pushes: arbitrary
//! garbage, truncations of a valid checkpoint, and single-bit flips
//! must all resolve to a *typed* [`RegistryError::Rejected`] with the
//! bytes quarantined — never a panic, and never a corrupt file under
//! `models/`. Published entries must survive any of this abuse
//! unharmed.

mod common;

use common::{ckpt_bytes, ScratchDir};
use p3d_infer::{content_hash, hash_hex, ModelRegistry, RegistryError};
use proptest::prelude::*;

/// Every file under `models/` must load cleanly; the fuzzed garbage
/// must never leak into the servable set.
fn assert_servable_set_clean(reg: &ModelRegistry) {
    for entry in reg.list().expect("list") {
        reg.load(&entry.hash)
            .unwrap_or_else(|e| panic!("published {} no longer loads: {e}", entry.hash));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_garbage_is_rejected_typed_never_published(
        bytes in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let dir = ScratchDir::new("fuzz-garbage");
        let reg = ModelRegistry::open(&dir.path).expect("open");
        match reg.publish(&bytes) {
            // Vanishingly unlikely random bytes form a valid P3DCKPT2
            // (magic + CRC per record), but it would be a valid publish.
            Ok(p) => prop_assert_eq!(&p.hash, &hash_hex(content_hash(&bytes))),
            Err(RegistryError::Rejected { hash, reason }) => {
                prop_assert_eq!(&hash, &hash_hex(content_hash(&bytes)));
                prop_assert!(!reason.is_empty(), "reason must be typed");
                let rejected = reg.rejected().expect("rejected listing");
                prop_assert!(
                    rejected.iter().any(|r| r.name == hash),
                    "quarantine must record the push"
                );
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
        assert_servable_set_clean(&reg);
    }

    #[test]
    fn truncations_of_a_valid_checkpoint_never_publish_or_panic(
        keep_fraction in 0.0f64..0.999,
    ) {
        let dir = ScratchDir::new("fuzz-trunc");
        let reg = ModelRegistry::open(&dir.path).expect("open");
        let full = ckpt_bytes(41);
        let keep = ((full.len() as f64) * keep_fraction) as usize;
        let truncated = &full[..keep.min(full.len() - 1)];
        let err = reg.publish(truncated).expect_err("truncation must reject");
        prop_assert!(
            matches!(err, RegistryError::Rejected { .. }),
            "typed rejection, got {err:?}"
        );
        prop_assert!(reg.list().expect("list").is_empty(), "nothing published");
        assert_servable_set_clean(&reg);
    }

    #[test]
    fn bitflips_cannot_corrupt_the_served_model(
        flip_at_fraction in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let dir = ScratchDir::new("fuzz-flip");
        let reg = ModelRegistry::open(&dir.path).expect("open");
        let good = ckpt_bytes(42);
        let published = reg.publish(&good).expect("valid publish");

        // Push a bit-flipped sibling: either it rejects (typed) or — if
        // the flip lands in a tensor name's don't-care space and still
        // CRCs, which it can't — it publishes under its *own* hash.
        let mut evil = good.clone();
        let at = ((evil.len() as f64) * flip_at_fraction) as usize;
        let at = at.min(evil.len() - 1);
        evil[at] ^= flip_mask;
        match reg.publish(&evil) {
            // Different bytes must land under a different key, and a
            // rejection must not shadow the good model's entry.
            Ok(p) => prop_assert_ne!(&p.hash, &published.hash),
            Err(RegistryError::Rejected { hash, .. }) => {
                prop_assert_ne!(&hash, &published.hash);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }

        // The original model is untouched by any of this.
        let loaded = reg.load(&published.hash).expect("good model still loads");
        prop_assert_eq!(loaded, published.checkpoint);
        assert_servable_set_clean(&reg);
    }

    #[test]
    fn on_disk_bitflip_after_publish_is_quarantined_not_served(
        flip_at_fraction in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let dir = ScratchDir::new("fuzz-disk");
        let reg = ModelRegistry::open(&dir.path).expect("open");
        let good = ckpt_bytes(43);
        let hash = reg.publish(&good).expect("publish").hash;

        // Corrupt the published file behind the registry's back.
        let path = reg.path_of(&hash);
        let mut on_disk = std::fs::read(&path).expect("read back");
        let at = ((on_disk.len() as f64) * flip_at_fraction) as usize;
        let at = at.min(on_disk.len() - 1);
        on_disk[at] ^= flip_mask;
        std::fs::write(&path, &on_disk).expect("rewrite");

        let err = reg.load(&hash).expect_err("corruption must not be served");
        prop_assert!(matches!(err, RegistryError::Rejected { .. }), "{err:?}");
        prop_assert!(
            reg.list().expect("list").iter().all(|e| e.hash != hash),
            "corrupt entry must leave the servable set"
        );
        prop_assert!(
            reg.rejected().expect("rejected").iter().any(|r| r.name == hash),
            "corrupt entry must be quarantined for forensics"
        );
    }
}

/// Deterministic spot-checks that the property runner's generators
/// might plausibly miss.
#[test]
fn classic_corruptions_reject_with_useful_reasons() {
    let dir = ScratchDir::new("classic");
    let reg = ModelRegistry::open(&dir.path).expect("open");
    let good = ckpt_bytes(44);

    let empty = reg.publish(b"").expect_err("empty");
    let wrong_magic = {
        let mut b = good.clone();
        b[0] ^= 0xff;
        reg.publish(&b).expect_err("bad magic")
    };
    let truncated_mid_record = reg.publish(&good[..good.len() / 2]).expect_err("truncated");
    for (tag, err) in [
        ("empty", empty),
        ("magic", wrong_magic),
        ("truncated", truncated_mid_record),
    ] {
        let RegistryError::Rejected { reason, .. } = &err else {
            panic!("{tag}: expected Rejected, got {err:?}");
        };
        assert!(!reason.is_empty(), "{tag}: reason must explain the kill");
    }
    assert!(reg.list().expect("list").is_empty());
    assert_eq!(reg.rejected().expect("rejected").len(), 3);

    // And after all that abuse, a clean publish still works.
    let published = reg.publish(&good).expect("clean publish");
    assert_eq!(
        reg.load(&published.hash).expect("load"),
        published.checkpoint
    );
}
