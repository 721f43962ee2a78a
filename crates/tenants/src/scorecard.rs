//! Per-tenant SLO scorecards and their export sinks.
//!
//! A [`SloScorecard`] is what a scenario run produces: one
//! [`TenantScore`] per tenant (attainment, tail vs target, goodput,
//! attributed power) plus run-level aggregates — mean attainment across
//! service tenants, attainment-per-watt (the ROADMAP's headline metric
//! for scoring policies), the Jain fairness index over per-tenant
//! attainment, and batch goodput. Export goes through the same two
//! sink idioms as the PR 4 decision trace: hand-rolled JSONL (one
//! object per tenant plus a summary line) and Prometheus-style text
//! exposition. Tenant names are ASCII identifiers by construction
//! ([`crate::tenant::TenantSpec`] takes `&'static str`), so no JSON
//! escaping is needed and the repo stays free of a serde dependency.

use std::fmt::Write as _;

use pap_telemetry::stats;

/// One tenant's measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantScore {
    /// Tenant name.
    pub name: &'static str,
    /// Whether this is the batch class.
    pub batch: bool,
    /// Fraction of measurement windows that met the SLO (1.0 for batch
    /// — no objective, no violations).
    pub attainment: f64,
    /// Measured tail latency at the SLO percentile over the whole
    /// measured period, in ms (0 for batch).
    pub tail_ms: f64,
    /// The SLO bound in ms (0 for batch).
    pub target_ms: f64,
    /// The SLO percentile (0 for batch).
    pub percentile: f64,
    /// Completed requests (services) over the measured period.
    pub completed: u64,
    /// Requests dropped at the full queue (services).
    pub dropped: u64,
    /// Goodput: completed requests/s for services, giga-instructions/s
    /// for batch.
    pub goodput: f64,
    /// Package power attributed to the tenant by activity weighting,
    /// in watts.
    pub mean_power_w: f64,
    /// Package energy attributed to the tenant over the measured
    /// period, in watt-hours.
    pub energy_wh: f64,
    /// Mean per-core shares held over the run (the controller moves
    /// these; static runs report the configured value).
    pub mean_shares: f64,
}

/// A complete scenario outcome under one control mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SloScorecard {
    /// Scenario name.
    pub scenario: &'static str,
    /// Control mode short name (`slo-aware`, `static-shares`, `rapl`).
    pub mode: &'static str,
    /// Measured duration in simulated seconds (after warm-up).
    pub duration_s: f64,
    /// Mean package power over the measured period.
    pub mean_package_w: f64,
    /// The enforced package budget.
    pub budget_w: f64,
    /// Electricity tariff in USD per kWh, when cost accounting was
    /// requested. `None` leaves every cost field out of the exports, so
    /// accounting-off output is byte-identical to the pre-cost format.
    pub tariff_usd_per_kwh: Option<f64>,
    /// Per-tenant outcomes, in scenario order.
    pub tenants: Vec<TenantScore>,
}

impl SloScorecard {
    /// Mean SLO attainment across service tenants (1.0 when the
    /// scenario has no services).
    pub fn attainment(&self) -> f64 {
        let svc: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| !t.batch)
            .map(|t| t.attainment)
            .collect();
        if svc.is_empty() {
            1.0
        } else {
            svc.iter().sum::<f64>() / svc.len() as f64
        }
    }

    /// Attainment per watt of measured package power, scaled to a
    /// 100 W socket (attainment × 100 / watts) so the number stays
    /// O(1) and readable.
    pub fn attainment_per_watt(&self) -> f64 {
        if self.mean_package_w > 0.0 {
            self.attainment() * 100.0 / self.mean_package_w
        } else {
            0.0
        }
    }

    /// Jain fairness index over service tenants' attainment.
    ///
    /// Degenerate runs follow the [`stats::jain`]
    /// convention: no service tenants, or every attainment zero (all
    /// SLOs missed equally), report 1.0 — equal, if dismal, treatment.
    pub fn jain(&self) -> f64 {
        let svc: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| !t.batch)
            .map(|t| t.attainment)
            .collect();
        stats::jain(&svc)
    }

    /// Package energy over the measured period in watt-hours.
    pub fn package_wh(&self) -> f64 {
        self.mean_package_w * self.duration_s / 3600.0
    }

    /// Electricity cost of the run in USD, when a tariff is set.
    pub fn cost_usd(&self) -> Option<f64> {
        self.tariff_usd_per_kwh
            .map(|t| self.package_wh() / 1000.0 * t)
    }

    /// Attainment per dollar-per-hour of electricity spend:
    /// `attainment / (kW × $/kWh)`. The denominator is the run's burn
    /// rate, so the number is duration-independent (like
    /// [`SloScorecard::attainment_per_watt`]) and stays O(10) at
    /// realistic tariffs.
    pub fn attainment_per_dollar(&self) -> Option<f64> {
        let tariff = self.tariff_usd_per_kwh?;
        let usd_per_hour = self.mean_package_w / 1000.0 * tariff;
        if usd_per_hour > 0.0 {
            Some(self.attainment() / usd_per_hour)
        } else {
            None
        }
    }

    /// Total batch goodput in giga-instructions per second.
    pub fn batch_gips(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| t.batch)
            .map(|t| t.goodput)
            .sum()
    }

    /// The run-level summary as one JSON object. Cost fields appear
    /// only when a tariff is set.
    pub fn summary_json(&self) -> String {
        let mut out = format!(
            "{{\"scenario\":\"{}\",\"mode\":\"{}\",\"duration_s\":{},\"budget_w\":{},\
             \"mean_package_w\":{:.3},\"attainment\":{:.4},\"attainment_per_watt\":{:.5},\
             \"jain\":{:.4},\"batch_gips\":{:.3}",
            self.scenario,
            self.mode,
            self.duration_s,
            self.budget_w,
            self.mean_package_w,
            self.attainment(),
            self.attainment_per_watt(),
            self.jain(),
            self.batch_gips(),
        );
        if let Some(tariff) = self.tariff_usd_per_kwh {
            let _ = write!(
                out,
                ",\"tariff_usd_per_kwh\":{tariff},\"package_wh\":{:.4},\
                 \"cost_usd\":{:.6},\"attainment_per_dollar\":{:.4}",
                self.package_wh(),
                self.cost_usd().unwrap_or(0.0),
                self.attainment_per_dollar().unwrap_or(0.0),
            );
        }
        out.push('}');
        out
    }

    /// JSONL export: one object per tenant, then the summary object.
    /// Per-tenant cost appears only when a tariff is set.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            let _ = write!(
                out,
                "{{\"scenario\":\"{}\",\"mode\":\"{}\",\"tenant\":\"{}\",\"class\":\"{}\",\
                 \"attainment\":{:.4},\"tail_ms\":{:.3},\"target_ms\":{},\"percentile\":{},\
                 \"completed\":{},\"dropped\":{},\"goodput\":{:.3},\"mean_power_w\":{:.3},\
                 \"energy_wh\":{:.4},\"mean_shares\":{:.2}",
                self.scenario,
                self.mode,
                t.name,
                if t.batch { "batch" } else { "service" },
                t.attainment,
                t.tail_ms,
                t.target_ms,
                t.percentile,
                t.completed,
                t.dropped,
                t.goodput,
                t.mean_power_w,
                t.energy_wh,
                t.mean_shares,
            );
            if let Some(tariff) = self.tariff_usd_per_kwh {
                let _ = write!(out, ",\"cost_usd\":{:.6}", t.energy_wh / 1000.0 * tariff);
            }
            out.push_str("}\n");
        }
        out.push_str(&self.summary_json());
        out.push('\n');
        out
    }

    /// Prometheus-style text exposition: per-tenant gauges labelled by
    /// scenario/mode/tenant, plus the run-level aggregates.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let gauges: [(&str, &str); 5] = [
            (
                "pap_tenant_slo_attainment",
                "Fraction of windows meeting the tenant SLO.",
            ),
            (
                "pap_tenant_tail_ms",
                "Measured tail latency at the SLO percentile.",
            ),
            (
                "pap_tenant_goodput",
                "Completed rps (services) or GIPS (batch).",
            ),
            (
                "pap_tenant_power_watts",
                "Package power attributed to the tenant.",
            ),
            (
                "pap_tenant_energy_wh_total",
                "Package energy attributed to the tenant over the run.",
            ),
        ];
        for (name, help) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for t in &self.tenants {
                let v = match name {
                    "pap_tenant_slo_attainment" => t.attainment,
                    "pap_tenant_tail_ms" => t.tail_ms,
                    "pap_tenant_goodput" => t.goodput,
                    "pap_tenant_energy_wh_total" => t.energy_wh,
                    _ => t.mean_power_w,
                };
                let _ = writeln!(
                    out,
                    "{name}{{scenario=\"{}\",mode=\"{}\",tenant=\"{}\"}} {v:.6}",
                    self.scenario, self.mode, t.name
                );
            }
        }
        let aggregates: [(&str, &str, f64); 4] = [
            (
                "pap_scenario_attainment",
                "Mean SLO attainment across service tenants.",
                self.attainment(),
            ),
            (
                "pap_scenario_attainment_per_watt",
                "Attainment per watt (x100) of measured package power.",
                self.attainment_per_watt(),
            ),
            (
                "pap_scenario_jain",
                "Jain fairness index over service-tenant attainment.",
                self.jain(),
            ),
            (
                "pap_scenario_batch_gips",
                "Total batch goodput in giga-instructions per second.",
                self.batch_gips(),
            ),
        ];
        for (name, help, v) in aggregates {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(
                out,
                "{name}{{scenario=\"{}\",mode=\"{}\"}} {v:.6}",
                self.scenario, self.mode
            );
        }
        if self.tariff_usd_per_kwh.is_some() {
            let cost: [(&str, &str, f64); 2] = [
                (
                    "pap_scenario_cost_usd_total",
                    "Electricity cost of the run at the configured tariff.",
                    self.cost_usd().unwrap_or(0.0),
                ),
                (
                    "pap_scenario_attainment_per_dollar",
                    "Attainment per dollar-per-hour of electricity spend.",
                    self.attainment_per_dollar().unwrap_or(0.0),
                ),
            ];
            for (name, help, v) in cost {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(
                    out,
                    "{name}{{scenario=\"{}\",mode=\"{}\"}} {v:.6}",
                    self.scenario, self.mode
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn card() -> SloScorecard {
        SloScorecard {
            scenario: "test",
            mode: "slo-aware",
            duration_s: 120.0,
            mean_package_w: 45.0,
            budget_w: 45.0,
            tariff_usd_per_kwh: None,
            tenants: vec![
                TenantScore {
                    name: "web",
                    batch: false,
                    attainment: 0.9,
                    tail_ms: 18.0,
                    target_ms: 20.0,
                    percentile: 99.0,
                    completed: 10_000,
                    dropped: 3,
                    goodput: 400.0,
                    mean_power_w: 25.0,
                    energy_wh: 25.0 * 120.0 / 3600.0,
                    mean_shares: 80.0,
                },
                TenantScore {
                    name: "bg",
                    batch: true,
                    attainment: 1.0,
                    tail_ms: 0.0,
                    target_ms: 0.0,
                    percentile: 0.0,
                    completed: 0,
                    dropped: 0,
                    goodput: 6.5,
                    mean_power_w: 15.0,
                    energy_wh: 15.0 * 120.0 / 3600.0,
                    mean_shares: 20.0,
                },
            ],
        }
    }

    #[test]
    fn aggregates() {
        let c = card();
        assert!((c.attainment() - 0.9).abs() < 1e-12, "service-only mean");
        assert!((c.attainment_per_watt() - 0.9 * 100.0 / 45.0).abs() < 1e-12);
        assert_eq!(c.jain(), 1.0, "single service tenant is trivially fair");
        assert!((c.batch_gips() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn jsonl_shape() {
        let text = card().to_jsonl();
        assert_eq!(text.lines().count(), 3, "two tenants + summary");
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(text.contains("\"tenant\":\"web\""));
        assert!(text.contains("\"class\":\"batch\""));
        assert!(text.contains("\"attainment_per_watt\":2.0"));
    }

    #[test]
    fn cost_fields_are_tariff_gated() {
        let plain = card();
        let mut priced = card();
        priced.tariff_usd_per_kwh = Some(0.25);

        // Without a tariff no cost vocabulary leaks into any export.
        for text in [plain.to_jsonl(), plain.prometheus()] {
            assert!(!text.contains("cost"), "tariff-free export: {text}");
            assert!(!text.contains("tariff"), "tariff-free export: {text}");
            assert!(!text.contains("dollar"), "tariff-free export: {text}");
        }
        assert_eq!(plain.cost_usd(), None);
        assert_eq!(plain.attainment_per_dollar(), None);

        // With one, the derived numbers are tariff-linear.
        let wh = priced.package_wh();
        assert!((wh - 45.0 * 120.0 / 3600.0).abs() < 1e-12);
        let cost = priced.cost_usd().unwrap();
        assert!((cost - wh / 1000.0 * 0.25).abs() < 1e-12);
        let apd = priced.attainment_per_dollar().unwrap();
        assert!((apd - 0.9 / (45.0 / 1000.0 * 0.25)).abs() < 1e-9);
        let text = priced.to_jsonl();
        assert!(text.contains("\"tariff_usd_per_kwh\":0.25"));
        assert!(text.contains("\"cost_usd\":"));
        assert!(priced.prometheus().contains("pap_scenario_cost_usd_total"));
    }

    #[test]
    fn prometheus_shape() {
        let text = card().prometheus();
        assert!(text.contains("# TYPE pap_tenant_slo_attainment gauge"));
        assert!(text.contains(
            "pap_tenant_slo_attainment{scenario=\"test\",mode=\"slo-aware\",tenant=\"web\"} 0.9"
        ));
        assert!(text.contains(
            "pap_scenario_attainment_per_watt{scenario=\"test\",mode=\"slo-aware\"} 2.0"
        ));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed line: {line}");
        }
    }
}
