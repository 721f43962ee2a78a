//! The strict two-level **priority policy** (§4.1, §5.1).
//!
//! High-priority (HP) applications run at the maximum P-state that fits
//! the power limit; low-priority (LP) applications receive only residual
//! power, starting at the slowest P-state and climbing only while the
//! budget allows. When the budget is tight the policy takes power from LP
//! first — the opposite of native RAPL, which throttles whoever is fastest
//! — and ultimately *starves* LP applications (parks their cores), the
//! variant the paper implements ("in our implementation we starve the LP
//! applications"). With every LP core parked, opportunistic scaling lets
//! the HP cores exceed their all-core limits, reproducing the paper's
//! observation that three HP applications at 40 W run *faster* than at
//! 85 W with all cores busy.
//!
//! Within each class all applications run at the same P-state (§4.1: "in
//! the absence of a separate proportional share policy, all HP and all LP
//! applications run at the same P-states").

use pap_model::{TranslationModel, TranslationQuery};
use pap_simcpu::freq::KiloHertz;

use crate::config::Priority;
use crate::policy::{Policy, PolicyCtx, PolicyInput, PolicyOutput, PolicyScratch};

/// The priority policy.
#[derive(Debug, Clone)]
pub struct PriorityPolicy {
    /// Uniform frequency level for HP applications.
    hp_level: KiloHertz,
    /// Uniform frequency level for LP applications.
    lp_level: KiloHertz,
    /// Whether LP applications are currently parked (starved).
    lp_parked: bool,
    /// Control intervals since the last park/unpark flip (hysteresis).
    intervals_since_flip: u32,
    /// §4.1 variant: floor every core at the minimum P-state instead of
    /// starving LP applications.
    pub floor_low_priority: bool,
    /// Estimated package power cost of waking one LP core at the minimum
    /// P-state; used to decide whether residual headroom can start LP.
    pub lp_start_cost: f64,
    /// Minimum intervals between park/unpark flips.
    pub flip_holdoff: u32,
}

impl PriorityPolicy {
    /// The paper's variant (starve LP under pressure).
    pub fn new() -> PriorityPolicy {
        PriorityPolicy {
            hp_level: KiloHertz::ZERO,
            lp_level: KiloHertz::ZERO,
            lp_parked: true,
            intervals_since_flip: u32::MAX,
            floor_low_priority: false,
            lp_start_cost: 1.2,
            flip_holdoff: 3,
        }
    }

    /// The alternative variant: all cores floored at minimum, never parked.
    pub fn flooring() -> PriorityPolicy {
        PriorityPolicy {
            floor_low_priority: true,
            lp_parked: false,
            ..PriorityPolicy::new()
        }
    }

    /// Current class levels `(hp, lp)` for inspection.
    pub fn levels(&self) -> (KiloHertz, KiloHertz) {
        (self.hp_level, self.lp_level)
    }

    /// Whether LP applications are starved right now.
    pub fn lp_parked(&self) -> bool {
        self.lp_parked
    }

    fn render_into(&self, apps: &[crate::policy::AppView], out: &mut PolicyOutput) {
        out.freqs.clear();
        out.freqs.extend(apps.iter().map(|a| match a.priority {
            Priority::High => self.hp_level,
            Priority::Low => self.lp_level,
        }));
        out.parked.clear();
        out.parked.extend(
            apps.iter()
                .map(|a| a.priority == Priority::Low && self.lp_parked),
        );
    }

    /// Per-core level move from the translation model, damped, at least
    /// one grid step so the controller cannot stall short of the target.
    fn level_step(
        &self,
        ctx: &PolicyCtx,
        err_watts: f64,
        class_size: usize,
        current: &[KiloHertz],
        model: &dyn TranslationModel,
    ) -> u64 {
        if class_size == 0 {
            return 0;
        }
        let total = model.frequency_delta_khz(&TranslationQuery {
            power_error: pap_simcpu::units::Watts(err_watts.abs()),
            max_power: ctx.max_power,
            max_freq: ctx.grid.max(),
            available: class_size,
            max_performance: 1.0,
            current,
        });
        let per_core = total * ctx.damping / class_size as f64;
        (per_core as u64).max(ctx.grid.step().khz())
    }
}

impl Default for PriorityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for PriorityPolicy {
    fn name(&self) -> &'static str {
        "priority"
    }

    /// "The daemon starts the HP applications at the highest P-state";
    /// LP applications start parked (or at the floor, in the flooring
    /// variant) until a step finds headroom for them.
    fn initial_into(
        &mut self,
        ctx: &PolicyCtx,
        apps: &[crate::policy::AppView],
        out: &mut PolicyOutput,
    ) {
        self.hp_level = ctx.grid.max();
        self.lp_level = ctx.grid.min();
        self.lp_parked = !self.floor_low_priority;
        self.intervals_since_flip = u32::MAX;
        self.render_into(apps, out);
    }

    fn step_into(
        &mut self,
        ctx: &PolicyCtx,
        input: &PolicyInput<'_>,
        model: &dyn TranslationModel,
        _scratch: &mut PolicyScratch,
        out: &mut PolicyOutput,
    ) {
        if self.hp_level == KiloHertz::ZERO {
            // Daemon skipped initial(); bootstrap now (cold path).
            self.initial_into(ctx, input.apps, out);
            return;
        }
        let n_hp = input
            .apps
            .iter()
            .filter(|a| a.priority == Priority::High)
            .count();
        let n_lp = input.apps.len() - n_hp;
        self.intervals_since_flip = self.intervals_since_flip.saturating_add(1);

        let err = ctx.limit - input.package_power;
        if err.abs() <= ctx.deadband {
            self.render_into(input.apps, out);
            return;
        }

        if err.value() < 0.0 {
            // Over budget: take from LP first.
            let lp_active = n_lp > 0 && !self.lp_parked;
            if lp_active && self.lp_level > ctx.grid.min() {
                let step = self.level_step(ctx, err.value(), n_lp, input.current, model);
                self.lp_level = ctx
                    .grid
                    .round(KiloHertz(self.lp_level.khz().saturating_sub(step)));
            } else if lp_active
                && !self.floor_low_priority
                && self.intervals_since_flip >= self.flip_holdoff
            {
                // LP already at the floor: starve them.
                self.lp_parked = true;
                self.intervals_since_flip = 0;
            } else if n_hp > 0 {
                // Nothing left to take from LP: throttle HP.
                let step = self.level_step(ctx, err.value(), n_hp, input.current, model);
                self.hp_level = ctx
                    .grid
                    .round(KiloHertz(self.hp_level.khz().saturating_sub(step)));
            }
        } else {
            // Headroom: satisfy HP fully before LP sees anything.
            if self.hp_level < ctx.grid.max() && n_hp > 0 {
                let step = self.level_step(ctx, err.value(), n_hp, input.current, model);
                self.hp_level = ctx
                    .grid
                    .round((self.hp_level + KiloHertz(step)).min(ctx.grid.max()));
            } else if n_lp > 0 && self.lp_parked {
                // Consider starting LP at the slowest P-state — only if the
                // headroom covers the estimated wake cost of all of them.
                if self.intervals_since_flip >= self.flip_holdoff
                    && err.value() > self.lp_start_cost * n_lp as f64
                {
                    self.lp_parked = false;
                    self.lp_level = ctx.grid.min();
                    self.intervals_since_flip = 0;
                }
            } else if n_lp > 0 && self.lp_level < ctx.grid.max() {
                let step = self.level_step(ctx, err.value(), n_lp, input.current, model);
                self.lp_level = ctx
                    .grid
                    .round((self.lp_level + KiloHertz(step)).min(ctx.grid.max()));
            }
        }

        self.hp_level = self.hp_level.clamp(ctx.grid.min(), ctx.grid.max());
        self.lp_level = self.lp_level.clamp(ctx.grid.min(), ctx.grid.max());
        self.render_into(input.apps, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AppView;
    use pap_simcpu::freq::FreqGrid;
    use pap_simcpu::units::Watts;

    fn ctx(limit: f64) -> PolicyCtx {
        PolicyCtx::new(
            FreqGrid::new(
                KiloHertz::from_mhz(800),
                KiloHertz::from_mhz(3000),
                KiloHertz::from_mhz(100),
            ),
            Watts(85.0),
            Watts(limit),
        )
    }

    fn apps(n_hp: usize, n_lp: usize) -> Vec<AppView> {
        (0..n_hp + n_lp)
            .map(|i| AppView {
                core: i,
                shares: 100.0,
                priority: if i < n_hp {
                    Priority::High
                } else {
                    Priority::Low
                },
                active_freq: KiloHertz::from_mhz(2000),
                power: None,
                ips: 1e9,
                baseline_ips: 1e9,
            })
            .collect()
    }

    fn step(
        p: &mut PriorityPolicy,
        c: &PolicyCtx,
        a: &[AppView],
        cur: &[KiloHertz],
        pkg: f64,
    ) -> PolicyOutput {
        p.step(
            c,
            &PolicyInput {
                package_power: Watts(pkg),
                apps: a,
                current: cur,
            },
        )
    }

    #[test]
    fn initial_hp_max_lp_parked() {
        let mut p = PriorityPolicy::new();
        let a = apps(3, 2);
        let out = p.initial(&ctx(50.0), &a);
        assert_eq!(out.freqs[0], KiloHertz::from_mhz(3000));
        assert!(out.parked[3] && out.parked[4]);
        assert!(!out.parked[0]);
    }

    #[test]
    fn over_budget_takes_from_lp_first() {
        let mut p = PriorityPolicy::new();
        let c = ctx(50.0);
        let a = apps(2, 2);
        p.initial(&c, &a);
        // force LP running at mid level
        p.lp_parked = false;
        p.lp_level = KiloHertz::from_mhz(2000);
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        let out = step(&mut p, &c, &a, &cur, 60.0);
        let (hp, lp) = p.levels();
        assert_eq!(hp, KiloHertz::from_mhz(3000), "HP untouched");
        assert!(lp < KiloHertz::from_mhz(2000), "LP throttled first");
        assert!(!out.parked[2]);
    }

    #[test]
    fn lp_starved_when_floored_and_still_over() {
        let mut p = PriorityPolicy::new();
        p.flip_holdoff = 0;
        let c = ctx(40.0);
        let a = apps(2, 2);
        p.initial(&c, &a);
        p.lp_parked = false;
        p.lp_level = c.grid.min();
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        let out = step(&mut p, &c, &a, &cur, 55.0);
        assert!(p.lp_parked(), "LP must be starved");
        assert!(out.parked[2] && out.parked[3]);
    }

    #[test]
    fn hp_throttled_only_after_lp_gone() {
        let mut p = PriorityPolicy::new();
        p.flip_holdoff = 0;
        let c = ctx(40.0);
        let a = apps(2, 2);
        p.initial(&c, &a); // LP parked
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        step(&mut p, &c, &a, &cur, 60.0);
        let (hp, _) = p.levels();
        assert!(
            hp < KiloHertz::from_mhz(3000),
            "HP throttled as last resort"
        );
    }

    #[test]
    fn flooring_variant_never_parks() {
        let mut p = PriorityPolicy::flooring();
        p.flip_holdoff = 0;
        let c = ctx(40.0);
        let a = apps(2, 2);
        p.initial(&c, &a);
        assert!(!p.lp_parked());
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        for _ in 0..10 {
            let out = step(&mut p, &c, &a, &cur, 60.0);
            assert!(out.parked.iter().all(|&x| !x));
        }
        // pressure lands on HP instead
        let (hp, lp) = p.levels();
        assert_eq!(lp, c.grid.min());
        assert!(hp < c.grid.max());
    }

    #[test]
    fn headroom_raises_hp_before_unparking_lp() {
        let mut p = PriorityPolicy::new();
        p.flip_holdoff = 0;
        let c = ctx(70.0);
        let a = apps(2, 2);
        p.initial(&c, &a);
        p.hp_level = KiloHertz::from_mhz(2000);
        let cur = vec![KiloHertz::from_mhz(2000); 4];
        step(&mut p, &c, &a, &cur, 40.0);
        let (hp, _) = p.levels();
        assert!(hp > KiloHertz::from_mhz(2000));
        assert!(p.lp_parked(), "LP stays parked until HP is satisfied");
    }

    #[test]
    fn big_headroom_unparks_lp_once_hp_satisfied() {
        let mut p = PriorityPolicy::new();
        p.flip_holdoff = 0;
        let c = ctx(70.0);
        let a = apps(2, 2);
        p.initial(&c, &a); // hp at max already
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        let out = step(&mut p, &c, &a, &cur, 40.0);
        assert!(!p.lp_parked(), "30 W headroom must start 2 LP apps");
        assert_eq!(p.levels().1, c.grid.min(), "LP starts at slowest P-state");
        assert!(!out.parked[2]);
    }

    #[test]
    fn tiny_headroom_keeps_lp_parked() {
        let mut p = PriorityPolicy::new();
        p.flip_holdoff = 0;
        let c = ctx(50.0);
        let a = apps(2, 8);
        p.initial(&c, &a);
        let cur = vec![KiloHertz::from_mhz(3000); 10];
        // 3 W headroom < 8 × 2 W start cost
        step(&mut p, &c, &a, &cur, 47.0);
        assert!(p.lp_parked(), "cannot start 8 LP apps on 3 W");
    }

    #[test]
    fn lp_climbs_with_sustained_headroom() {
        let mut p = PriorityPolicy::new();
        p.flip_holdoff = 0;
        let c = ctx(70.0);
        let a = apps(2, 2);
        p.initial(&c, &a);
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        step(&mut p, &c, &a, &cur, 40.0); // unpark
        step(&mut p, &c, &a, &cur, 45.0); // climb
        let (_, lp) = p.levels();
        assert!(lp > c.grid.min());
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut p = PriorityPolicy::new(); // holdoff = 3
        let c = ctx(50.0);
        let a = apps(2, 2);
        p.initial(&c, &a);
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        // plenty of headroom, but a fresh flip must wait out the holdoff
        p.lp_parked = true;
        p.intervals_since_flip = 0;
        step(&mut p, &c, &a, &cur, 20.0);
        assert!(p.lp_parked(), "holdoff must delay unpark");
        step(&mut p, &c, &a, &cur, 20.0);
        step(&mut p, &c, &a, &cur, 20.0);
        assert!(!p.lp_parked(), "unpark after holdoff expires");
    }

    #[test]
    fn deadband_is_stable() {
        let mut p = PriorityPolicy::new();
        let c = ctx(50.0);
        let a = apps(5, 5);
        p.initial(&c, &a);
        let before = p.levels();
        let cur = vec![KiloHertz::from_mhz(3000); 10];
        step(&mut p, &c, &a, &cur, 50.2);
        assert_eq!(p.levels(), before);
    }

    #[test]
    fn all_hp_mix_behaves() {
        let mut p = PriorityPolicy::new();
        p.flip_holdoff = 0;
        let c = ctx(40.0);
        let a = apps(4, 0);
        p.initial(&c, &a);
        let cur = vec![KiloHertz::from_mhz(3000); 4];
        let out = step(&mut p, &c, &a, &cur, 55.0);
        assert!(out.freqs[0] < KiloHertz::from_mhz(3000));
        assert!(out.parked.iter().all(|&x| !x));
    }
}
