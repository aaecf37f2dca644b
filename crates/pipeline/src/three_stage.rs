//! The §2 three-stage pipeline model (Figures 1–3).
//!
//! Stage 1 prefetches instructions into the instruction buffer, stage 2
//! decodes / calculates effective addresses / fetches operands, stage 3
//! executes and stores results. The bus is shared by all three stages and
//! modeled by the complementary places `Bus_free` / `Bus_busy` plus the
//! activity-breakdown places `pre_fetching`, `fetching`, `storing`
//! (§4.2). Transitions moving the bus token are all zero-firing-time so
//! `Bus_free + Bus_busy = 1` in every observable state (§4.4).
//!
//! Place and transition names follow the paper's Figure 5 so that
//! reports line up column-for-column.

use crate::config::{CacheConfig, ModelError, ThreeStageConfig};
use pnut_core::{Net, NetBuilder};

/// Names of the execution transitions for a given class count, e.g.
/// `exec_type_1` .. `exec_type_5` for the paper's five classes.
pub fn exec_transition_names(classes: usize) -> Vec<String> {
    (1..=classes).map(|i| format!("exec_type_{i}")).collect()
}

/// Add a memory-access completion for `activity` (e.g. `prefetch`):
/// plain main-memory latency, or a probabilistic hit/miss pair when a
/// cache is configured (§3).
///
/// The hit/miss decision must be made *when the access starts*, not by
/// racing two enabling delays (the shorter deadline would always win
/// and the hit ratio would be ignored). So with a cache the busy place
/// feeds two zero-time routing transitions competing by frequency, each
/// leading to its own completion with the appropriate enabling delay;
/// the bus token stays on `Bus_busy` throughout, preserving the §4.4
/// invariant.
fn add_memory_completion(
    b: &mut NetBuilder,
    name: &str,
    busy_place: &str,
    outputs: &[(&str, u32)],
    mem_cycles: u64,
    cache: Option<&CacheConfig>,
) {
    let complete = |b: &mut NetBuilder, tname: String, from_place: &str, cycles: u64| {
        let mut t = b
            .transition(tname)
            .input("Bus_busy")
            .input(from_place)
            .output("Bus_free")
            .enabling(cycles);
        for &(p, w) in outputs {
            t = t.output_weighted(p, w);
        }
        t.add();
    };
    match cache {
        Some(c) if c.hit_ratio >= 1.0 => {
            complete(b, format!("{name}_hit"), busy_place, c.hit_cycles);
        }
        Some(c) if c.hit_ratio <= 0.0 => {
            complete(b, format!("{name}_miss"), busy_place, mem_cycles);
        }
        Some(c) => {
            let hit_place = format!("{busy_place}_hit");
            let miss_place = format!("{busy_place}_miss");
            b.place(hit_place.as_str(), 0);
            b.place(miss_place.as_str(), 0);
            b.transition(format!("{name}_route_hit"))
                .input(busy_place)
                .output(hit_place.as_str())
                .frequency(c.hit_ratio)
                .add();
            b.transition(format!("{name}_route_miss"))
                .input(busy_place)
                .output(miss_place.as_str())
                .frequency(1.0 - c.hit_ratio)
                .add();
            complete(b, format!("{name}_hit"), &hit_place, c.hit_cycles);
            complete(b, format!("{name}_miss"), &miss_place, mem_cycles);
        }
        None => complete(b, name.to_string(), busy_place, mem_cycles),
    }
}

/// Build the three-stage pipeline net from `config`.
///
/// # Errors
///
/// Returns [`ModelError`] if the configuration is invalid.
///
/// # Example
///
/// ```
/// use pnut_pipeline::{three_stage, ThreeStageConfig};
///
/// # fn main() -> Result<(), pnut_pipeline::ModelError> {
/// let net = three_stage::build(&ThreeStageConfig::default())?;
/// assert!(net.place_id("Bus_busy").is_some());
/// assert!(net.transition_id("Issue").is_some());
/// # Ok(())
/// # }
/// ```
pub fn build(config: &ThreeStageConfig) -> Result<Net, ModelError> {
    config.validate()?;
    let mut b = NetBuilder::new("three_stage_pipeline");

    // --- Shared resources -------------------------------------------------
    b.place("Bus_free", 1);
    b.place("Bus_busy", 0);
    b.place("Decoder_ready", 1);
    b.place("Execution_unit", 1);

    // --- Stage 1: instruction prefetch (Figure 1) --------------------------
    b.place("Empty_I_buffers", config.ibuf_words);
    b.place("Full_I_buffers", 0);
    b.place("pre_fetching", 0);
    b.place("Operand_fetch_pending", 0);
    b.place("Result_store_pending", 0);

    b.transition("Start_prefetch")
        .input("Bus_free")
        .input_weighted("Empty_I_buffers", config.words_per_prefetch)
        .inhibitor("Operand_fetch_pending")
        .inhibitor("Result_store_pending")
        .output("Bus_busy")
        .output("pre_fetching")
        .add();
    add_memory_completion(
        &mut b,
        "End_prefetch",
        "pre_fetching",
        &[("Full_I_buffers", config.words_per_prefetch)],
        config.mem_access_cycles,
        config.cache.as_ref(),
    );

    // --- Stage 2: decode, address calculation, operand fetch (Figure 2) ---
    b.place("Decoded_instruction", 0);
    b.place("T2_calc", 0);
    b.place("T3_calc", 0);
    b.place("T2_wait", 0);
    b.place("T3_wait", 0);
    b.place("fetching", 0);
    b.place("Operands_fetched", 0);
    b.place("ready_to_issue_instruction", 0);

    b.transition("Decode")
        .input("Full_I_buffers")
        .input("Decoder_ready")
        .output("Decoded_instruction")
        .output("Empty_I_buffers")
        .firing(config.decode_cycles)
        .add();

    let mix = &config.instruction_mix;
    if mix.zero_operand > 0.0 {
        b.transition("Type_1")
            .input("Decoded_instruction")
            .output("ready_to_issue_instruction")
            .frequency(mix.zero_operand)
            .add();
    }
    if mix.one_operand > 0.0 {
        b.transition("Type_2")
            .input("Decoded_instruction")
            .output("T2_calc")
            .frequency(mix.one_operand)
            .add();
        b.transition("calc_eaddr_1")
            .input("T2_calc")
            .output("T2_wait")
            .output("Operand_fetch_pending")
            .firing(config.eaddr_cycles_per_operand)
            .add();
        b.transition("finish_2")
            .input("T2_wait")
            .input("Operands_fetched")
            .output("ready_to_issue_instruction")
            .add();
    }
    if mix.two_operand > 0.0 {
        b.transition("Type_3")
            .input("Decoded_instruction")
            .output("T3_calc")
            .frequency(mix.two_operand)
            .add();
        b.transition("calc_eaddr_2")
            .input("T3_calc")
            .output("T3_wait")
            .output_weighted("Operand_fetch_pending", 2)
            .firing(2 * config.eaddr_cycles_per_operand)
            .add();
        b.transition("finish_3")
            .input("T3_wait")
            .input_weighted("Operands_fetched", 2)
            .output("ready_to_issue_instruction")
            .add();
    }
    if mix.one_operand > 0.0 || mix.two_operand > 0.0 {
        b.transition("start_fetch")
            .input("Operand_fetch_pending")
            .input("Bus_free")
            .output("Bus_busy")
            .output("fetching")
            .add();
        add_memory_completion(
            &mut b,
            "end_fetch",
            "fetching",
            &[("Operands_fetched", 1)],
            config.mem_access_cycles,
            config.cache.as_ref(),
        );
    }

    // --- Stage 3: execution and result store (Figure 3) --------------------
    b.place("Issued_instruction", 0);
    b.place("Executed", 0);
    b.place("storing", 0);

    b.transition("Issue")
        .input("ready_to_issue_instruction")
        .input("Execution_unit")
        .output("Issued_instruction")
        .output("Decoder_ready")
        .add();

    for (i, class) in config.exec_classes.iter().enumerate() {
        b.transition(format!("exec_type_{}", i + 1))
            .input("Issued_instruction")
            .output("Executed")
            .firing(class.cycles)
            .frequency(class.frequency)
            .add();
    }

    let p_store = config.store_probability;
    if p_store < 1.0 {
        b.transition("no_store")
            .input("Executed")
            .output("Execution_unit")
            .frequency(1.0 - p_store)
            .add();
    }
    if p_store > 0.0 {
        b.transition("want_store")
            .input("Executed")
            .output("Result_store_pending")
            .frequency(p_store)
            .add();
        b.transition("start_store")
            .input("Result_store_pending")
            .input("Bus_free")
            .output("Bus_busy")
            .output("storing")
            .add();
        add_memory_completion(
            &mut b,
            "end_store",
            "storing",
            &[("Execution_unit", 1)],
            config.mem_access_cycles,
            config.cache.as_ref(),
        );
    }

    b.build().map_err(ModelError::from)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use pnut_core::invariant;

    #[test]
    fn paper_model_builds_with_expected_structure() {
        let net = build(&ThreeStageConfig::default()).unwrap();
        for p in [
            "Bus_free",
            "Bus_busy",
            "Empty_I_buffers",
            "Full_I_buffers",
            "pre_fetching",
            "fetching",
            "storing",
            "Decoder_ready",
            "Execution_unit",
            "ready_to_issue_instruction",
        ] {
            assert!(net.place_id(p).is_some(), "missing place {p}");
        }
        for t in [
            "Start_prefetch",
            "End_prefetch",
            "Decode",
            "Type_1",
            "Type_2",
            "Type_3",
            "Issue",
            "exec_type_1",
            "exec_type_5",
            "no_store",
            "want_store",
        ] {
            assert!(net.transition_id(t).is_some(), "missing transition {t}");
        }
        assert_eq!(
            net.initial_marking()
                .tokens(net.place_id("Empty_I_buffers").unwrap()),
            6
        );
    }

    #[test]
    fn bus_places_form_a_conserved_atomic_group() {
        let net = build(&ThreeStageConfig::default()).unwrap();
        let group = [
            net.place_id("Bus_free").unwrap(),
            net.place_id("Bus_busy").unwrap(),
        ];
        assert!(
            invariant::conservation_violations(&net, &group).is_empty(),
            "every transition must preserve Bus_free + Bus_busy"
        );
        assert!(
            invariant::nonatomic_group_movers(&net, &group).is_empty(),
            "bus movements must be zero-firing-time (§4.2)"
        );
    }

    #[test]
    fn cache_splits_memory_transitions() {
        let mut c = ThreeStageConfig::default();
        c.cache = Some(CacheConfig {
            hit_ratio: 0.9,
            hit_cycles: 1,
        });
        let net = build(&c).unwrap();
        assert!(net.transition_id("End_prefetch").is_none());
        assert!(net.transition_id("End_prefetch_hit").is_some());
        assert!(net.transition_id("End_prefetch_miss").is_some());
        assert!(net.transition_id("end_fetch_hit").is_some());
        assert!(net.transition_id("end_store_miss").is_some());
    }

    #[test]
    fn degenerate_cache_ratios_produce_single_transition() {
        let mut c = ThreeStageConfig::default();
        c.cache = Some(CacheConfig {
            hit_ratio: 1.0,
            hit_cycles: 1,
        });
        let net = build(&c).unwrap();
        assert!(net.transition_id("End_prefetch_hit").is_some());
        assert!(net.transition_id("End_prefetch_miss").is_none());

        c.cache = Some(CacheConfig {
            hit_ratio: 0.0,
            hit_cycles: 1,
        });
        let net = build(&c).unwrap();
        assert!(net.transition_id("End_prefetch_hit").is_none());
        assert!(net.transition_id("End_prefetch_miss").is_some());
    }

    #[test]
    fn zero_frequency_classes_are_omitted() {
        let mut c = ThreeStageConfig::default();
        c.instruction_mix.one_operand = 0.0;
        c.instruction_mix.two_operand = 0.0;
        c.store_probability = 0.0;
        let net = build(&c).unwrap();
        assert!(net.transition_id("Type_2").is_none());
        assert!(net.transition_id("Type_3").is_none());
        assert!(net.transition_id("start_fetch").is_none());
        assert!(net.transition_id("want_store").is_none());
        assert!(net.transition_id("no_store").is_some());
    }

    #[test]
    fn exec_names_helper_matches_model() {
        let names = exec_transition_names(5);
        assert_eq!(names[0], "exec_type_1");
        assert_eq!(names[4], "exec_type_5");
        let net = build(&ThreeStageConfig::default()).unwrap();
        for n in names {
            assert!(net.transition_id(&n).is_some());
        }
    }
}
