//! The single-source campaign specification.
//!
//! A [`CampaignSpec`] is everything needed to run a campaign: the
//! application, its size, the target regions, the [`CampaignConfig`]
//! knobs, and the mode (plain, guard-coverage, or fault-tolerance, each
//! with its policy). It is the one description both front ends consume:
//! the `faultlab` one-shot verbs build one from their flags, and the
//! campaign service accepts the same object as JSON over its socket —
//! `faultlab spec` prints the canonical JSON for a given flag set, so a
//! command line can be turned into a submittable document verbatim.
//!
//! Serialization is deliberately canonical: [`CampaignSpec::to_json`]
//! emits one line with a fixed field order, so equal specs are equal
//! bytes (the server keys resumable campaign state on this property).

use crate::campaign::CampaignConfig;
use crate::chaos::ChaosPolicy;
use crate::json::{parse, Json};
use crate::matrix::Preset;
use crate::perturb::PerturbPolicy;
use crate::target::TargetClass;
use fl_apps::AppKind;
use fl_ft::FtPolicy;
use fl_guard::GuardPolicy;
use std::fmt::Write as _;

/// Which experiment family a spec runs, with its policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecMode {
    /// Plain injection campaign (Tables 2–4).
    Campaign,
    /// Guard-off/guard-on detection-coverage campaign.
    Guard(GuardPolicy),
    /// Rank-kill recovery + replication campaign.
    Ft(FtPolicy),
    /// Chaos defense-coverage matrix: every chaos fault model against
    /// every defense column.
    Chaos(ChaosPolicy),
    /// Performance-interference matrix: every perturb fault model (plus
    /// the kill/wedge denominator) against every detection column.
    Perturb(PerturbPolicy),
}

impl SpecMode {
    /// The mode's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            SpecMode::Campaign => "campaign",
            SpecMode::Guard(_) => "guard",
            SpecMode::Ft(_) => "ft",
            SpecMode::Chaos(_) => "chaos",
            SpecMode::Perturb(_) => "perturb",
        }
    }

    /// Every mode's wire name.
    pub const NAMES: [&'static str; 5] = ["campaign", "guard", "ft", "chaos", "perturb"];

    /// The mode with wire name `name`, carrying its default policy.
    pub fn named(name: &str) -> Option<SpecMode> {
        Some(match name {
            "campaign" => SpecMode::Campaign,
            "guard" => SpecMode::Guard(GuardPolicy::default()),
            "ft" => SpecMode::Ft(FtPolicy::default()),
            "chaos" => SpecMode::Chaos(ChaosPolicy::default()),
            "perturb" => SpecMode::Perturb(PerturbPolicy::default()),
            _ => return None,
        })
    }

    fn knobs(&self) -> Option<&dyn KnobSet> {
        match self {
            SpecMode::Campaign => None,
            SpecMode::Guard(p) => Some(p),
            SpecMode::Ft(p) => Some(p),
            SpecMode::Chaos(p) => Some(p),
            SpecMode::Perturb(p) => Some(p),
        }
    }

    fn knobs_mut(&mut self) -> Option<&mut dyn KnobSet> {
        match self {
            SpecMode::Campaign => None,
            SpecMode::Guard(p) => Some(p),
            SpecMode::Ft(p) => Some(p),
            SpecMode::Chaos(p) => Some(p),
            SpecMode::Perturb(p) => Some(p),
        }
    }

    /// The CLI flags of this mode's policy knobs.
    pub fn flags(&self) -> Vec<&'static str> {
        self.knobs().map_or_else(Vec::new, |k| k.flags())
    }

    /// Set this mode's policy knobs from CLI flags: `value(flag)` is the
    /// value given for `--flag`, if any. A value that is not a number,
    /// or too wide for its field, is an error naming the flag.
    pub fn set_flags<'a>(&mut self, value: &dyn Fn(&str) -> Option<&'a str>) -> Result<(), String> {
        match self.knobs_mut() {
            Some(k) => k.read_flags(value),
            None => Ok(()),
        }
    }

    /// The matrix preset of a chaos or perturb mode.
    pub fn preset(&self) -> Option<&dyn Preset> {
        match self {
            SpecMode::Chaos(p) => Some(p),
            SpecMode::Perturb(p) => Some(p),
            _ => None,
        }
    }

    /// Does this mode stream per-trial records a restarted campaign can
    /// adopt? Plain campaigns and matrix presets do; guard and ft
    /// campaigns do not.
    pub fn streams_records(&self) -> bool {
        !matches!(self, SpecMode::Guard(_) | SpecMode::Ft(_))
    }
}

/// A complete, self-contained campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Which application to inject into.
    pub app: AppKind,
    /// Use the CI-sized app parameters instead of the paper-sized ones.
    pub tiny: bool,
    /// Target regions, in campaign order. Ignored by `ft` mode, which
    /// draws rank kills and message faults instead of region faults.
    pub classes: Vec<TargetClass>,
    /// Execution knobs shared by every mode.
    pub campaign: CampaignConfig,
    /// Experiment family and its policy.
    pub mode: SpecMode,
}

impl CampaignSpec {
    /// A plain campaign of `app` with default knobs over all regions.
    pub fn new(app: AppKind) -> CampaignSpec {
        CampaignSpec {
            app,
            tiny: false,
            classes: TargetClass::ALL.to_vec(),
            campaign: CampaignConfig::default(),
            mode: SpecMode::Campaign,
        }
    }

    /// Serialize as canonical JSON: one line, fixed field order. Equal
    /// specs serialize to equal bytes.
    pub fn to_json(&self) -> String {
        let c = &self.campaign;
        let mut out = format!(
            "{{\"app\":\"{}\",\"tiny\":{},\"regions\":[",
            self.app.name(),
            self.tiny
        );
        for (i, r) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", r.name());
        }
        let _ = write!(
            out,
            "],\"injections\":{},\"seed\":{},\"budget_factor\":{},\"threads\":{},\"epoch_rounds\":{},\"ring\":{},\"fastpath\":{},\"mode\":\"{}\"",
            c.injections,
            c.seed,
            c.budget_factor,
            c.threads,
            c.epoch_rounds,
            c.obs_capacity,
            c.fastpath,
            self.mode.name(),
        );
        if let Some(knobs) = self.mode.knobs() {
            let _ = write!(out, ",\"{}\":{{", self.mode.name());
            knobs.write_json(&mut out);
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parse a spec from JSON. Every field except `app` is optional and
    /// falls back to its default; unknown keys and integers too wide for
    /// their field are rejected (the same typo protection the CLI's flag
    /// validation gives — and a truncated value would alias another
    /// campaign's canonical bytes).
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let v = parse(text)?;
        let Json::Obj(map) = &v else {
            return Err("spec must be a JSON object".into());
        };
        const KEYS: [&str; 15] = [
            "app",
            "tiny",
            "regions",
            "injections",
            "seed",
            "budget_factor",
            "threads",
            "epoch_rounds",
            "ring",
            "fastpath",
            "mode",
            "guard",
            "ft",
            "chaos",
            "perturb",
        ];
        for key in map.keys() {
            if !KEYS.contains(&key.as_str()) {
                return Err(crate::suggest::unknown("spec key", key, &KEYS));
            }
        }
        let app: AppKind = v
            .get("app")
            .and_then(Json::as_str)
            .ok_or("spec needs an `app`")?
            .parse()?;
        let mut spec = CampaignSpec::new(app);
        if let Some(t) = v.get("tiny") {
            spec.tiny = t.as_bool().ok_or("`tiny` must be a bool")?;
        }
        if let Some(r) = v.get("regions") {
            spec.classes = r
                .as_arr()
                .ok_or("`regions` must be an array")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .ok_or_else(|| "region names must be strings".to_string())
                        .and_then(|s| s.parse::<TargetClass>())
                })
                .collect::<Result<_, _>>()?;
        }
        let c = &mut spec.campaign;
        if let Some(n) = int(&v, "injections", u32::BITS)? {
            c.injections = n as u32;
        }
        if let Some(n) = int(&v, "seed", u64::BITS)? {
            c.seed = n;
        }
        if let Some(n) = v.get("budget_factor") {
            c.budget_factor = n.as_f64().ok_or("`budget_factor` must be a number")?;
        }
        if let Some(n) = int(&v, "threads", usize::BITS)? {
            c.threads = n as usize;
        }
        if let Some(n) = int(&v, "epoch_rounds", u32::BITS)? {
            c.epoch_rounds = n as u32;
        }
        if let Some(n) = int(&v, "ring", u32::BITS)? {
            c.obs_capacity = n as u32;
        }
        if let Some(b) = v.get("fastpath") {
            c.fastpath = b.as_bool().ok_or("`fastpath` must be a bool")?;
        }
        let name = v.get("mode").map_or(Some("campaign"), Json::as_str);
        spec.mode = name.and_then(SpecMode::named).ok_or_else(|| {
            format!(
                "unknown mode `{}` (expected campaign, guard, ft, chaos or perturb)",
                name.unwrap_or("?")
            )
        })?;
        let what = spec.mode.name();
        if let (Some(knobs), Some(obj)) = (spec.mode.knobs_mut(), v.get(what)) {
            knobs.read_json(what, obj)?;
        }
        Ok(spec)
    }

    /// The per-slot target classes of this spec's record stream — the
    /// `classes` argument [`crate::engine::CompletedSlots::from_jsonl`]
    /// needs to adopt records on resume. Plain campaigns stream one slot
    /// per requested region; matrix presets their fixed
    /// `rows × columns` grid; guard and ft campaigns do not stream
    /// adoptable records, so their slot space is empty.
    pub fn record_classes(&self) -> Vec<TargetClass> {
        match (&self.mode, self.mode.preset()) {
            (_, Some(p)) => p.grid().classes(),
            (SpecMode::Campaign, None) => self.classes.clone(),
            _ => Vec::new(),
        }
    }

    /// Trials the spec runs, known before the engine starts.
    pub fn planned_trials(&self) -> u64 {
        let n = self.campaign.injections as u64;
        match self.mode {
            // `injections` rank kills plus `injections` replica trials.
            SpecMode::Ft(_) => 2 * n,
            SpecMode::Guard(_) => self.classes.len() as u64 * n,
            _ => self.record_classes().len() as u64 * n,
        }
    }

    /// Trials per record-stream slot — the companion bound to
    /// [`CampaignSpec::record_classes`] for record adoption.
    pub fn record_injections(&self) -> u32 {
        if self.mode.streams_records() {
            self.campaign.injections
        } else {
            0
        }
    }
}

/// Largest value an unsigned integer of `bits` bits holds.
fn max_of(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

/// The unsigned integer at `key` of `v`, if present. A value wider
/// than `bits` is an error naming the key, never a truncation.
fn int(v: &Json, key: &str, bits: u32) -> Result<Option<u64>, String> {
    let Some(j) = v.get(key) else {
        return Ok(None);
    };
    let max = max_of(bits);
    match j.as_u64() {
        Some(n) if n <= max => Ok(Some(n)),
        _ => Err(format!("`{key}` must be an integer no larger than {max}")),
    }
}

/// One integer policy knob: the single place its spec-JSON key, its CLI
/// flag and its integer width are spelled out. The spec codec and the
/// CLI both read these tables, so a knob cannot reach one and miss the
/// other.
pub struct Knob<P> {
    /// Key in the mode's policy object of the spec JSON.
    pub key: &'static str,
    /// CLI flag without its `--` (`None`: settable through the spec
    /// only).
    pub flag: Option<&'static str>,
    /// Width of the field in bits; wider values are rejected.
    pub bits: u32,
    get: fn(&P) -> u64,
    set: fn(&mut P, u64),
}

/// A policy whose integer knobs are listed in a field table.
pub trait Knobs: Sized + 'static {
    /// The table, in canonical JSON order.
    const KNOBS: &'static [Knob<Self>];
}

/// A [`Knob`] on the field path after the type (`guard.max_restarts`,
/// `partition_rounds.0`).
macro_rules! knob {
    ($key:literal, $flag:expr, $ty:ty, $($field:tt)+) => {
        Knob {
            key: $key,
            flag: $flag,
            bits: <$ty>::BITS,
            get: |p| p.$($field)+ as u64,
            set: |p, v| p.$($field)+ = v as $ty,
        }
    };
}

// One knob per line: key, CLI flag, width, field path.
#[rustfmt::skip]
impl Knobs for GuardPolicy {
    const KNOBS: &'static [Knob<Self>] = &[
        knob!("checkpoint_rounds", Some("checkpoint-rounds"), u32, checkpoint_rounds),
        knob!("max_restarts",      Some("restarts"),          u32, max_restarts),
        knob!("window_rounds",     None,                      u32, window_rounds),
        knob!("stall_windows",     None,                      u32, stall_windows),
        knob!("max_retransmits",   Some("retransmits"),       u8,  max_retransmits),
    ];
}

#[rustfmt::skip]
impl Knobs for FtPolicy {
    const KNOBS: &'static [Knob<Self>] = &[
        knob!("buddy_rounds",   Some("buddy-rounds"),   u64, buddy_rounds),
        knob!("max_respawns",   Some("respawns"),       u32, max_respawns),
        knob!("replicas",       Some("replicas"),       u16, replicas),
        knob!("probe_rounds",   Some("probe-rounds"),   u64, detector.probe_rounds),
        knob!("suspect_rounds", Some("suspect-rounds"), u64, detector.suspect_rounds),
    ];
}

/// The chaos knobs, then the guard knobs of the crc/watchdog columns and
/// the ft knobs of the replica/shrink/app columns, flat.
#[rustfmt::skip]
impl Knobs for ChaosPolicy {
    const KNOBS: &'static [Knob<Self>] = &[
        knob!("partition_lo",      Some("partition-lo"),      u64, partition_rounds.0),
        knob!("partition_hi",      Some("partition-hi"),      u64, partition_rounds.1),
        knob!("reorder_max_delay", Some("reorder-delay"),     u64, reorder_max_delay),
        knob!("burst_max",         Some("burst-max"),         u16, burst_max),
        knob!("node_ranks",        Some("node-ranks"),        u16, node_ranks),
        knob!("checkpoint_rounds", Some("checkpoint-rounds"), u32, guard.checkpoint_rounds),
        knob!("max_restarts",      Some("restarts"),          u32, guard.max_restarts),
        knob!("window_rounds",     None,                      u32, guard.window_rounds),
        knob!("stall_windows",     None,                      u32, guard.stall_windows),
        knob!("max_retransmits",   Some("retransmits"),       u8,  guard.max_retransmits),
        knob!("buddy_rounds",      Some("buddy-rounds"),      u64, ft.buddy_rounds),
        knob!("max_respawns",      Some("respawns"),          u32, ft.max_respawns),
        knob!("replicas",          Some("replicas"),          u16, ft.replicas),
        knob!("probe_rounds",      Some("probe-rounds"),      u64, ft.detector.probe_rounds),
        knob!("suspect_rounds",    Some("suspect-rounds"),    u64, ft.detector.suspect_rounds),
    ];
}

#[rustfmt::skip]
impl Knobs for PerturbPolicy {
    const KNOBS: &'static [Knob<Self>] = &[
        knob!("probe_rounds",          Some("probe-rounds"),      u64, probe_rounds),
        knob!("suspect_rounds",        Some("suspect-rounds"),    u64, suspect_rounds),
        knob!("tax_rounds_lo",         Some("tax-rounds-lo"),     u64, tax_rounds.0),
        knob!("tax_rounds_hi",         Some("tax-rounds-hi"),     u64, tax_rounds.1),
        knob!("tax_permille_lo",       Some("tax-lo"),            u32, tax_permille.0),
        knob!("tax_permille_hi",       Some("tax-hi"),            u32, tax_permille.1),
        knob!("hog_share_lo",          Some("hog-share-lo"),      u32, hog_share_permille.0),
        knob!("hog_share_hi",          Some("hog-share-hi"),      u32, hog_share_permille.1),
        knob!("hog_node_ranks",        Some("hog-node-ranks"),    u16, hog_node_ranks),
        knob!("stall_per_access_lo",   Some("stall-access-lo"),   u64, stall_per_access.0),
        knob!("stall_per_access_hi",   Some("stall-access-hi"),   u64, stall_per_access.1),
        knob!("stall_window_per16_lo", Some("stall-window-lo"),   u64, stall_window_per16.0),
        knob!("stall_window_per16_hi", Some("stall-window-hi"),   u64, stall_window_per16.1),
        knob!("degraded_permille",     Some("degraded-permille"), u64, degraded_permille),
    ];
}

/// A policy's knob table with its type erased, so one code path serves
/// every mode.
trait KnobSet {
    /// Write the knobs as the members of a JSON object.
    fn write_json(&self, out: &mut String);
    /// Set the knobs present in the JSON object `obj`, the value of the
    /// spec key `what`.
    fn read_json(&mut self, what: &str, obj: &Json) -> Result<(), String>;
    /// Set every knob whose CLI flag `value` returns a value for.
    fn read_flags<'a>(&mut self, value: &dyn Fn(&str) -> Option<&'a str>) -> Result<(), String>;
    /// The CLI flags.
    fn flags(&self) -> Vec<&'static str>;
}

impl<P: Knobs> KnobSet for P {
    fn write_json(&self, out: &mut String) {
        for (i, k) in P::KNOBS.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{}", k.key, (k.get)(self));
        }
    }

    fn read_json(&mut self, what: &str, obj: &Json) -> Result<(), String> {
        let Json::Obj(map) = obj else {
            return Err(format!("`{what}` must be an object"));
        };
        let keys: Vec<&str> = P::KNOBS.iter().map(|k| k.key).collect();
        if let Some(bad) = map.keys().find(|key| !keys.contains(&key.as_str())) {
            return Err(crate::suggest::unknown(&format!("{what} key"), bad, &keys));
        }
        for k in P::KNOBS {
            if let Some(n) = int(obj, k.key, k.bits)? {
                (k.set)(self, n);
            }
        }
        Ok(())
    }

    fn read_flags<'a>(&mut self, value: &dyn Fn(&str) -> Option<&'a str>) -> Result<(), String> {
        for k in P::KNOBS {
            let Some((flag, v)) = k.flag.and_then(|f| Some((f, value(f)?))) else {
                continue;
            };
            let max = max_of(k.bits);
            match v.parse() {
                Ok(n) if n <= max => (k.set)(self, n),
                _ => return Err(format!("--{flag} expects a number up to {max}, got `{v}`")),
            }
        }
        Ok(())
    }

    fn flags(&self) -> Vec<&'static str> {
        P::KNOBS.iter().filter_map(|k| k.flag).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical bytes of a default spec in `mode` — pinned: the
    /// service keys every campaign's state on them, so a renamed,
    /// reordered or reformatted key is a breaking change even though the
    /// new form would still round-trip.
    fn pinned_default(mode: SpecMode, tail: &str) {
        let spec = CampaignSpec {
            mode,
            ..CampaignSpec::new(AppKind::Wavetoy)
        };
        let want = format!(
            "{{\"app\":\"wavetoy\",\"tiny\":false,\"regions\":[\"regular-reg\",\"fp-reg\",\
             \"bss\",\"data\",\"stack\",\"text\",\"heap\",\"message\"],\"injections\":500,\
             \"seed\":64023,\"budget_factor\":3,\"threads\":0,\"epoch_rounds\":16,\"ring\":0,\
             \"fastpath\":true,\"mode\":{tail}}}"
        );
        assert_eq!(spec.to_json(), want);
        assert_eq!(CampaignSpec::from_json(&want).unwrap(), spec);
    }

    #[test]
    fn default_spec_round_trips() {
        pinned_default(SpecMode::Campaign, "\"campaign\"");
        pinned_default(
            SpecMode::Guard(GuardPolicy::default()),
            "\"guard\",\"guard\":{\"checkpoint_rounds\":64,\"max_restarts\":3,\
             \"window_rounds\":8,\"stall_windows\":24,\"max_retransmits\":3}",
        );
        pinned_default(
            SpecMode::Ft(FtPolicy::default()),
            "\"ft\",\"ft\":{\"buddy_rounds\":64,\"max_respawns\":3,\"replicas\":3,\
             \"probe_rounds\":8,\"suspect_rounds\":32}",
        );
        pinned_default(
            SpecMode::Chaos(ChaosPolicy::default()),
            "\"chaos\",\"chaos\":{\"partition_lo\":64,\"partition_hi\":512,\
             \"reorder_max_delay\":64,\"burst_max\":3,\"node_ranks\":2,\
             \"checkpoint_rounds\":64,\"max_restarts\":3,\"window_rounds\":8,\
             \"stall_windows\":24,\"max_retransmits\":3,\"buddy_rounds\":64,\
             \"max_respawns\":3,\"replicas\":3,\"probe_rounds\":8,\"suspect_rounds\":32}",
        );
        pinned_default(
            SpecMode::Perturb(PerturbPolicy::default()),
            "\"perturb\",\"perturb\":{\"probe_rounds\":8,\"suspect_rounds\":32,\
             \"tax_rounds_lo\":256,\"tax_rounds_hi\":1024,\"tax_permille_lo\":900,\
             \"tax_permille_hi\":995,\"hog_share_lo\":300,\"hog_share_hi\":900,\
             \"hog_node_ranks\":2,\"stall_per_access_lo\":1,\"stall_per_access_hi\":6,\
             \"stall_window_per16_lo\":2,\"stall_window_per16_hi\":8,\
             \"degraded_permille\":1050}",
        );
    }

    #[test]
    fn guard_and_ft_modes_round_trip() {
        let mut spec = CampaignSpec::new(AppKind::Moldyn);
        spec.tiny = true;
        spec.classes = vec![TargetClass::Message, TargetClass::Heap];
        spec.campaign.injections = 40;
        spec.campaign.seed = u64::MAX; // full-width seeds must survive
        spec.mode = SpecMode::Guard(GuardPolicy {
            checkpoint_rounds: 8,
            max_restarts: 1,
            ..GuardPolicy::default()
        });
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        spec.mode = SpecMode::Ft(FtPolicy {
            replicas: 5,
            ..FtPolicy::default()
        });
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn minimal_spec_uses_defaults() {
        let spec = CampaignSpec::from_json(r#"{"app":"climsim"}"#).unwrap();
        assert_eq!(spec.app, AppKind::Climsim);
        assert_eq!(spec.classes, TargetClass::ALL.to_vec());
        assert_eq!(spec.campaign, CampaignConfig::default());
        assert_eq!(spec.mode, SpecMode::Campaign);
        assert!(!spec.tiny);
    }

    #[test]
    fn partial_policies_keep_defaults() {
        let spec = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"guard","guard":{"max_restarts":9}}"#,
        )
        .unwrap();
        let SpecMode::Guard(g) = spec.mode else {
            panic!("expected guard mode");
        };
        assert_eq!(g.max_restarts, 9);
        assert_eq!(
            g.checkpoint_rounds,
            GuardPolicy::default().checkpoint_rounds
        );

        let spec = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"ft","ft":{"replicas":2}}"#)
            .unwrap();
        let SpecMode::Ft(f) = spec.mode else {
            panic!("expected ft mode");
        };
        assert_eq!(f.replicas, 2);
        assert_eq!(f.buddy_rounds, FtPolicy::default().buddy_rounds);
    }

    #[test]
    fn chaos_spec_golden_json_is_stable() {
        // Every knob at a distinct non-default value, so a swapped pair
        // of keys cannot hide behind equal defaults.
        let mut p = ChaosPolicy {
            partition_rounds: (11, 12),
            reorder_max_delay: 13,
            burst_max: 14,
            node_ranks: 15,
            ..ChaosPolicy::default()
        };
        p.guard = GuardPolicy {
            checkpoint_rounds: 16,
            max_restarts: 17,
            window_rounds: 18,
            stall_windows: 19,
            max_retransmits: 20,
            ..p.guard
        };
        p.ft.buddy_rounds = 21;
        p.ft.max_respawns = 22;
        p.ft.replicas = 23;
        p.ft.detector.probe_rounds = 24;
        p.ft.detector.suspect_rounds = 25;
        let mut spec = CampaignSpec::new(AppKind::Jacobi3d);
        spec.tiny = true;
        spec.classes = vec![TargetClass::Stack];
        spec.campaign = CampaignConfig {
            injections: 7,
            seed: u64::MAX,
            threads: 3,
            epoch_rounds: 0,
            obs_capacity: 64,
            fastpath: false,
            ..spec.campaign
        };
        spec.mode = SpecMode::Chaos(p);
        let json = "{\"app\":\"jacobi3d\",\"tiny\":true,\"regions\":[\"stack\"],\
            \"injections\":7,\"seed\":18446744073709551615,\"budget_factor\":3,\"threads\":3,\
            \"epoch_rounds\":0,\"ring\":64,\"fastpath\":false,\"mode\":\"chaos\",\
            \"chaos\":{\"partition_lo\":11,\"partition_hi\":12,\"reorder_max_delay\":13,\
            \"burst_max\":14,\"node_ranks\":15,\"checkpoint_rounds\":16,\"max_restarts\":17,\
            \"window_rounds\":18,\"stall_windows\":19,\"max_retransmits\":20,\
            \"buddy_rounds\":21,\"max_respawns\":22,\"replicas\":23,\"probe_rounds\":24,\
            \"suspect_rounds\":25}}";
        assert_eq!(spec.to_json(), json);
        assert_eq!(CampaignSpec::from_json(json).unwrap(), spec);
    }

    #[test]
    fn partial_chaos_policies_keep_defaults() {
        let spec = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"chaos","chaos":{"burst_max":5,"partition_hi":2048}}"#,
        )
        .unwrap();
        let SpecMode::Chaos(p) = spec.mode else {
            panic!("expected chaos mode");
        };
        assert_eq!(p.burst_max, 5);
        assert_eq!(p.partition_rounds, (64, 2048));
        assert_eq!(p.node_ranks, ChaosPolicy::default().node_ranks);
        assert_eq!(p.guard, ChaosPolicy::default().guard);

        // Mode alone is enough; the whole policy defaults.
        let spec = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"chaos"}"#).unwrap();
        assert_eq!(spec.mode, SpecMode::Chaos(ChaosPolicy::default()));
    }

    #[test]
    fn unknown_chaos_keys_are_rejected_with_a_hint() {
        let err =
            CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"chaos","chaos":{"burst_mx":5}}"#)
                .unwrap_err();
        assert_eq!(
            err,
            "unknown chaos key `burst_mx` (did you mean `burst_max`?)"
        );
        let err =
            CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"chaos","chaos":[]}"#).unwrap_err();
        assert!(err.contains("`chaos` must be an object"), "{err}");
    }

    #[test]
    fn perturb_spec_golden_json_is_stable() {
        // Same bytes-are-the-key pin as the chaos golden test.
        let mut spec = CampaignSpec::new(AppKind::Climsim);
        spec.classes = vec![TargetClass::Message, TargetClass::Heap];
        spec.campaign.injections = 9;
        spec.campaign.seed = 5;
        spec.campaign.budget_factor = 2.5;
        spec.mode = SpecMode::Perturb(PerturbPolicy {
            probe_rounds: 31,
            suspect_rounds: 32,
            tax_rounds: (33, 34),
            tax_permille: (35, 36),
            hog_share_permille: (37, 38),
            hog_node_ranks: 39,
            stall_per_access: (40, 41),
            stall_window_per16: (42, 43),
            degraded_permille: 44,
        });
        let json = "{\"app\":\"climsim\",\"tiny\":false,\"regions\":[\"message\",\"heap\"],\
            \"injections\":9,\"seed\":5,\"budget_factor\":2.5,\"threads\":0,\"epoch_rounds\":16,\
            \"ring\":0,\"fastpath\":true,\"mode\":\"perturb\",\"perturb\":{\"probe_rounds\":31,\
            \"suspect_rounds\":32,\"tax_rounds_lo\":33,\"tax_rounds_hi\":34,\
            \"tax_permille_lo\":35,\"tax_permille_hi\":36,\"hog_share_lo\":37,\
            \"hog_share_hi\":38,\"hog_node_ranks\":39,\"stall_per_access_lo\":40,\
            \"stall_per_access_hi\":41,\"stall_window_per16_lo\":42,\
            \"stall_window_per16_hi\":43,\"degraded_permille\":44}}";
        assert_eq!(spec.to_json(), json);
        assert_eq!(CampaignSpec::from_json(json).unwrap(), spec);
    }

    #[test]
    fn partial_perturb_policies_keep_defaults() {
        let spec = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"perturb","perturb":{"tax_permille_hi":990,"degraded_permille":1100}}"#,
        )
        .unwrap();
        let SpecMode::Perturb(p) = spec.mode else {
            panic!("expected perturb mode");
        };
        assert_eq!(p.tax_permille, (900, 990));
        assert_eq!(p.degraded_permille, 1100);
        assert_eq!(p.hog_node_ranks, PerturbPolicy::default().hog_node_ranks);

        let spec = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"perturb"}"#).unwrap();
        assert_eq!(spec.mode, SpecMode::Perturb(PerturbPolicy::default()));
    }

    #[test]
    fn unknown_perturb_keys_are_rejected_with_a_hint() {
        let err = CampaignSpec::from_json(
            r#"{"app":"wavetoy","mode":"perturb","perturb":{"tax_permil_lo":5}}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "unknown perturb key `tax_permil_lo` (did you mean `tax_permille_lo`?)"
        );
        let err = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"perturb","perturb":[]}"#)
            .unwrap_err();
        assert!(err.contains("`perturb` must be an object"), "{err}");
    }

    #[test]
    fn record_slot_space_matches_the_mode() {
        let mut spec = CampaignSpec::new(AppKind::Wavetoy);
        spec.campaign.injections = 7;
        assert_eq!(spec.record_classes(), TargetClass::ALL.to_vec());
        assert_eq!(spec.record_injections(), 7);

        spec.mode = SpecMode::Chaos(ChaosPolicy::default());
        let classes = spec.record_classes();
        assert_eq!(classes.len(), 9 * 6, "9 chaos models x 6 defenses");
        assert_eq!(spec.record_injections(), 7);

        spec.mode = SpecMode::Perturb(PerturbPolicy::default());
        let classes = spec.record_classes();
        assert_eq!(classes.len(), 5 * 3, "5 perturb models x 3 detections");
        assert_eq!(spec.record_injections(), 7);

        spec.mode = SpecMode::Ft(FtPolicy::default());
        assert!(spec.record_classes().is_empty());
        assert_eq!(spec.record_injections(), 0);
    }

    #[test]
    fn integers_one_past_their_width_are_rejected_by_key() {
        // A wrapped value would serialize to a smaller number's canonical
        // bytes — and so alias that campaign's id on the service.
        for (json, key) in [
            (
                r#""mode":"guard","guard":{"max_retransmits":256}"#,
                "max_retransmits",
            ),
            (r#""mode":"chaos","chaos":{"burst_max":65536}"#, "burst_max"),
            (r#""mode":"ft","ft":{"replicas":65536}"#, "replicas"),
            (
                r#""mode":"perturb","perturb":{"hog_node_ranks":65536}"#,
                "hog_node_ranks",
            ),
            (r#""injections":4294967296"#, "injections"),
            (r#""epoch_rounds":4294967296"#, "epoch_rounds"),
            (r#""ring":4294967296"#, "ring"),
            (
                r#""mode":"perturb","perturb":{"tax_permille_lo":4294967296}"#,
                "tax_permille_lo",
            ),
            (r#""seed":18446744073709551616"#, "seed"),
        ] {
            let err =
                CampaignSpec::from_json(&format!(r#"{{"app":"wavetoy",{json}}}"#)).expect_err(json);
            assert!(err.contains(&format!("`{key}`")), "{json}: {err}");
        }
        // The maximum itself fits.
        let spec = CampaignSpec::from_json(
            r#"{"app":"wavetoy","injections":4294967295,"mode":"guard","guard":{"max_retransmits":255}}"#,
        )
        .unwrap();
        assert_eq!(spec.campaign.injections, u32::MAX);
        assert_eq!(spec.mode.name(), "guard");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(CampaignSpec::from_json("[]").is_err());
        assert!(CampaignSpec::from_json("{}").is_err(), "app is required");
        assert!(CampaignSpec::from_json(r#"{"app":"namd"}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"turbo"}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"app":"wavetoy","regions":["rom"]}"#).is_err());
        let err = CampaignSpec::from_json(r#"{"app":"wavetoy","injetions":5}"#).unwrap_err();
        assert!(err.contains("unknown spec key"), "{err}");
        // Guard and ft policies share the strict knob-table decoder.
        let err = CampaignSpec::from_json(r#"{"app":"wavetoy","mode":"ft","ft":{"replica":2}}"#)
            .unwrap_err();
        assert_eq!(err, "unknown ft key `replica` (did you mean `replicas`?)");
    }
}
