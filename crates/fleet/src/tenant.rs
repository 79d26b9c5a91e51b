//! Multi-tenancy: per-tenant group quotas, token-bucket rate limits,
//! and the deterministic shed order used under backend backlog.
//!
//! A group names its tenant by prefix: `acme/load-3` belongs to tenant
//! `acme`; a group with no `/` belongs to the implicit `default`
//! tenant. Admission runs on the coordinator before any proxying:
//!
//! 1. **quota** — a tenant may route at most `max_groups` distinct
//!    groups; the first snapshot of a group past the quota is refused
//!    (`tenant_quota`, not retryable — the tenant must shrink);
//! 2. **rate** — a token bucket per tenant (`rate` tokens/sec, `burst`
//!    cap) paces request admission (`tenant_shed`, retryable);
//! 3. **shed** — when the owning backend signals backlog (degraded or
//!    busy replies), the coordinator sheds whole tenants in
//!    *deterministic* order — lowest priority first, ties broken by
//!    FNV-1a of the tenant id — so every replica sheds the same tenants
//!    and a shed tenant's traffic stays shed until pressure drops,
//!    rather than random requests failing across all tenants.
//!
//! Time is caller-supplied (`f64` seconds, monotonic) so tests drive
//! the buckets deterministically.

use symbio::hash::fnv1a_64;

/// Static description of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant id (the group-name prefix before `/`).
    pub id: String,
    /// Shed priority: higher survives longer under backlog.
    pub priority: u8,
    /// Most distinct groups the tenant may route (0 = unlimited).
    pub max_groups: u64,
    /// Sustained admissions per second (0 = unlimited).
    pub rate: f64,
    /// Bucket capacity: how far above `rate` a burst may spike.
    pub burst: f64,
}

impl TenantSpec {
    /// An unconstrained tenant (no quota, no rate limit, priority 0).
    pub fn open(id: impl Into<String>) -> TenantSpec {
        TenantSpec {
            id: id.into(),
            priority: 0,
            max_groups: 0,
            rate: 0.0,
            burst: 0.0,
        }
    }

    /// Parse the CLI form `id:priority:max_groups:rate[:burst]`
    /// (`burst` defaults to `rate`).
    pub fn parse(s: &str) -> Result<TenantSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if !(4..=5).contains(&parts.len()) {
            return Err(format!(
                "tenant spec {s:?} is not id:priority:max_groups:rate[:burst]"
            ));
        }
        let fail = |field: &str| format!("tenant spec {s:?}: bad {field}");
        let rate: f64 = parts[3].parse().map_err(|_| fail("rate"))?;
        Ok(TenantSpec {
            id: parts[0].to_string(),
            priority: parts[1].parse().map_err(|_| fail("priority"))?,
            max_groups: parts[2].parse().map_err(|_| fail("max_groups"))?,
            rate,
            burst: match parts.get(4) {
                Some(b) => b.parse().map_err(|_| fail("burst"))?,
                None => rate,
            },
        })
    }
}

/// The tenant id a group name routes under.
pub fn tenant_of(group: &str) -> &str {
    match group.split_once('/') {
        Some((tenant, _)) if !tenant.is_empty() => tenant,
        _ => "default",
    }
}

/// Admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proxy it.
    Admit,
    /// The tenant is over its distinct-group quota (not retryable).
    QuotaExceeded,
    /// The tenant's token bucket is empty (retryable after backoff).
    RateLimited,
    /// The tenant is shed under backend backlog (retryable).
    Shed,
}

#[derive(Debug, Clone)]
struct TenantState {
    spec: TenantSpec,
    /// Distinct groups this tenant has routed.
    groups: u64,
    /// Token-bucket level at `refilled_at`.
    tokens: f64,
    refilled_at: f64,
    /// Requests admitted / refused (for operators; not on the wire).
    admitted: u64,
    refused: u64,
}

/// The tenant registry: specs, live quota/bucket state, and the
/// deterministic shed order.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    tenants: Vec<TenantState>,
    /// Tenant indexes sorted into shed order: lowest priority first,
    /// ties by FNV-1a of the id.
    shed_order: Vec<u16>,
    /// How many tenants (prefix of `shed_order`) are currently shed.
    shed_count: usize,
}

impl TenantRegistry {
    /// A registry over `specs`; unknown tenants encountered at runtime
    /// are added as unconstrained (`TenantSpec::open`).
    pub fn new(specs: Vec<TenantSpec>) -> TenantRegistry {
        let mut reg = TenantRegistry::default();
        for spec in specs {
            reg.intern_spec(spec);
        }
        reg
    }

    fn intern_spec(&mut self, spec: TenantSpec) -> u16 {
        if let Some(i) = self.tenants.iter().position(|t| t.spec.id == spec.id) {
            self.tenants[i].spec = spec;
            self.resort();
            return i as u16;
        }
        let tokens = spec.burst;
        self.tenants.push(TenantState {
            spec,
            groups: 0,
            tokens,
            refilled_at: 0.0,
            admitted: 0,
            refused: 0,
        });
        self.resort();
        (self.tenants.len() - 1) as u16
    }

    fn resort(&mut self) {
        let mut order: Vec<u16> = (0..self.tenants.len() as u16).collect();
        order.sort_by_key(|&i| {
            let t = &self.tenants[i as usize];
            (t.spec.priority, fnv1a_64(t.spec.id.as_bytes()))
        });
        self.shed_order = order;
    }

    /// Index of `tenant`, interning an unconstrained spec on first
    /// sight.
    pub fn index_of(&mut self, tenant: &str) -> u16 {
        if let Some(i) = self.tenants.iter().position(|t| t.spec.id == tenant) {
            return i as u16;
        }
        self.intern_spec(TenantSpec::open(tenant))
    }

    /// Known tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is registered yet.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Raise/lower backlog pressure: the first `n` tenants of the shed
    /// order are refused until pressure drops. Clamped to the tenant
    /// count; at least one tenant always survives (shedding everyone is
    /// an outage, not load shedding).
    pub fn set_pressure(&mut self, n: usize) {
        self.shed_count = n.min(self.tenants.len().saturating_sub(1));
    }

    /// Current backlog pressure (shed tenant count).
    pub fn pressure(&self) -> usize {
        self.shed_count
    }

    /// The tenant ids currently shed, in shed order.
    pub fn shed_ids(&self) -> Vec<&str> {
        self.shed_order[..self.shed_count]
            .iter()
            .map(|&i| self.tenants[i as usize].spec.id.as_str())
            .collect()
    }

    fn is_shed(&self, index: u16) -> bool {
        self.shed_order[..self.shed_count].contains(&index)
    }

    /// Admit one request from tenant `index` at monotonic time `now`
    /// (seconds). `new_group` is whether the request would route a group
    /// the coordinator has not seen (quota accounting).
    pub fn admit(&mut self, index: u16, new_group: bool, now: f64) -> Admission {
        if self.is_shed(index) {
            self.tenants[index as usize].refused += 1;
            return Admission::Shed;
        }
        let t = &mut self.tenants[index as usize];
        if new_group && t.spec.max_groups > 0 && t.groups >= t.spec.max_groups {
            t.refused += 1;
            return Admission::QuotaExceeded;
        }
        if t.spec.rate > 0.0 {
            // Refill, clamped to the burst cap; monotonic time means the
            // elapsed term can't go negative.
            let elapsed = (now - t.refilled_at).max(0.0);
            t.tokens = (t.tokens + elapsed * t.spec.rate).min(t.spec.burst);
            t.refilled_at = now;
            if t.tokens < 1.0 {
                t.refused += 1;
                return Admission::RateLimited;
            }
            t.tokens -= 1.0;
        }
        if new_group {
            t.groups += 1;
        }
        t.admitted += 1;
        Admission::Admit
    }

    /// Total requests shed or refused across all tenants (feeds the
    /// `tenant_sheds` counter).
    pub fn refused_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.refused).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_prefix_parsing() {
        assert_eq!(tenant_of("acme/load-0"), "acme");
        assert_eq!(tenant_of("load-0"), "default");
        assert_eq!(tenant_of("/odd"), "default");
        assert_eq!(tenant_of("a/b/c"), "a");
    }

    #[test]
    fn spec_parsing_accepts_the_cli_form() {
        let s = TenantSpec::parse("acme:2:1000:50").unwrap();
        assert_eq!(s.id, "acme");
        assert_eq!(s.priority, 2);
        assert_eq!(s.max_groups, 1000);
        assert_eq!(s.rate, 50.0);
        assert_eq!(s.burst, 50.0);
        let s = TenantSpec::parse("b:0:0:10:40").unwrap();
        assert_eq!(s.burst, 40.0);
        assert!(TenantSpec::parse("nope").is_err());
        assert!(TenantSpec::parse("a:x:0:1").is_err());
    }

    #[test]
    fn quota_refuses_the_group_past_the_cap() {
        let mut reg = TenantRegistry::new(vec![TenantSpec {
            id: "t".into(),
            priority: 0,
            max_groups: 2,
            rate: 0.0,
            burst: 0.0,
        }]);
        let i = reg.index_of("t");
        assert_eq!(reg.admit(i, true, 0.0), Admission::Admit);
        assert_eq!(reg.admit(i, true, 0.0), Admission::Admit);
        assert_eq!(reg.admit(i, true, 0.0), Admission::QuotaExceeded);
        // Existing groups keep flowing; only *new* groups are refused.
        assert_eq!(reg.admit(i, false, 0.0), Admission::Admit);
        assert_eq!(reg.refused_total(), 1);
    }

    #[test]
    fn token_bucket_paces_and_refills_with_time() {
        let mut reg = TenantRegistry::new(vec![TenantSpec {
            id: "t".into(),
            priority: 0,
            max_groups: 0,
            rate: 10.0,
            burst: 2.0,
        }]);
        let i = reg.index_of("t");
        assert_eq!(reg.admit(i, false, 0.0), Admission::Admit);
        assert_eq!(reg.admit(i, false, 0.0), Admission::Admit);
        assert_eq!(reg.admit(i, false, 0.0), Admission::RateLimited);
        // 0.1 s at 10 tokens/s refills one admission.
        assert_eq!(reg.admit(i, false, 0.1), Admission::Admit);
        assert_eq!(reg.admit(i, false, 0.1), Admission::RateLimited);
        // Refill clamps at burst: a long sleep buys 2, not 20.
        assert_eq!(reg.admit(i, false, 10.0), Admission::Admit);
        assert_eq!(reg.admit(i, false, 10.0), Admission::Admit);
        assert_eq!(reg.admit(i, false, 10.0), Admission::RateLimited);
    }

    #[test]
    fn shed_order_is_priority_then_id_hash_and_spares_the_last_tenant() {
        let spec = |id: &str, priority| TenantSpec {
            id: id.into(),
            priority,
            max_groups: 0,
            rate: 0.0,
            burst: 0.0,
        };
        let mut reg = TenantRegistry::new(vec![
            spec("gold", 2),
            spec("bronze-a", 0),
            spec("bronze-b", 0),
            spec("silver", 1),
        ]);
        // Ties at priority 0 break by fnv1a(id): order must be stable
        // across independently constructed registries.
        let mut reg2 = TenantRegistry::new(vec![
            spec("bronze-b", 0),
            spec("silver", 1),
            spec("bronze-a", 0),
            spec("gold", 2),
        ]);
        reg.set_pressure(2);
        reg2.set_pressure(2);
        assert_eq!(reg.shed_ids(), reg2.shed_ids());
        let shed = reg.shed_ids();
        assert!(shed.iter().all(|t| t.starts_with("bronze")));

        let bronze_a = reg.index_of("bronze-a");
        let gold = reg.index_of("gold");
        assert_eq!(reg.admit(bronze_a, false, 0.0), Admission::Shed);
        assert_eq!(reg.admit(gold, false, 0.0), Admission::Admit);

        // Pressure past the tenant count still spares one tenant.
        reg.set_pressure(100);
        assert_eq!(reg.pressure(), 3);
        assert_eq!(reg.shed_ids().len(), 3);
        assert!(!reg.shed_ids().contains(&"gold"));

        reg.set_pressure(0);
        assert_eq!(reg.admit(bronze_a, false, 0.0), Admission::Admit);
    }
}
