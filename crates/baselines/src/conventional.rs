//! The conventional P4 workflow baseline (§2.1) and native fixed-function
//! equivalents of the case-study programs (§6.4).
//!
//! Two pieces:
//!
//! * [`ConventionalTiming`] — the deployment timeline of the classic
//!   workflow: compile with P4C (minutes), reprovision the switch
//!   (seconds, suspending *all* programs and traffic), re-enable ports.
//!   Figure 13(b)/(c) compares this against P4runpro's sub-second link.
//! * Native pipelines — the same cache / load-balancer / heavy-hitter
//!   functions written directly against the simulator as dedicated,
//!   compile-time-fixed match-action programs. The case studies assert
//!   functional equivalence between these and the runtime-linked P4runpro
//!   programs.

use p4rp_dataplane::fields;
use rmt_sim::action::{ActionDef, HashCall, HashInput, Operand, SaluCall, VliwOp};
use rmt_sim::clock::Nanos;
use rmt_sim::error::SimResult;
use rmt_sim::hash::{CRC16_AUG_CCITT, CRC16_BUYPASS, CRC16_DDS_110, CRC16_MCRF4XX};
use rmt_sim::pipeline::{Gress, Pipeline, StageLimits};
use rmt_sim::salu::{RegArray, SaluCond, SaluExpr, SaluInstr, SaluOutput};
use rmt_sim::switch::{ControlOp, Switch, SwitchConfig, TableRef};
use rmt_sim::table::{KeySpec, MatchKind, MatchValue, Table, TableEntry};

/// Deployment timing of the conventional P4 workflow.
#[derive(Debug, Clone, Copy)]
pub struct ConventionalTiming {
    /// P4C compile time ("a few or even a dozen minutes", §6.2.1).
    pub compile: Nanos,
    /// Binary reprovisioning (all traffic and programs suspended).
    pub reprovision: Nanos,
    /// Port re-enable after reprovisioning.
    pub port_enable: Nanos,
}

impl Default for ConventionalTiming {
    fn default() -> Self {
        ConventionalTiming {
            compile: Nanos::from_secs(150),
            reprovision: Nanos::from_secs(6),
            port_enable: Nanos::from_secs(2),
        }
    }
}

impl ConventionalTiming {
    /// Time from "operator decides" to "function active".
    /// `precompiled` skips the compile step (the Figure 13 setup deploys a
    /// binary compiled ahead of time).
    pub fn deployment_delay(&self, precompiled: bool) -> Nanos {
        let mut d = self.reprovision + self.port_enable;
        if !precompiled {
            d += self.compile;
        }
        d
    }
}

/// A native (compile-time-fixed) cache switch: the standalone P4 program
/// equivalent of the Figure 2 cache.
pub struct NativeCache {
    /// Switch.
    pub switch: Switch,
    table: TableRef,
}

impl NativeCache {
    /// Build with the given `(key, bucket)` pairs and the miss port.
    pub fn build(keys: &[(u64, u32)], miss_port: u16) -> SimResult<NativeCache> {
        let (ft, parser, f) = fields::build()?;
        let intr = ft.intrinsics();
        let nc_op = f.lookup("hdr.nc.op").unwrap();
        let nc_key1 = f.lookup("hdr.nc.key1").unwrap();
        let nc_key2 = f.lookup("hdr.nc.key2").unwrap();
        let nc_value = f.lookup("hdr.nc.value").unwrap();

        let limits = StageLimits::default();
        let mut ingress = Pipeline::new(Gress::Ingress, 2, limits);
        let egress = Pipeline::new(Gress::Egress, 1, limits);

        let actions = vec![
            // 0: cache read hit → value from memory, reflect.
            ActionDef {
                name: "read_hit".into(),
                ops: vec![VliwOp::set(intr.return_flag, Operand::Const(1))],
                hash: None,
                salu: Some(SaluCall {
                    array: 0,
                    addr: Operand::Arg(0),
                    operand: Operand::Const(0),
                    instr: SaluInstr::READ,
                    alt_instr: None,
                    select_flag: None,
                    output: Some(nc_value),
                }),
            },
            // 1: cache write hit → store value, consume packet.
            ActionDef {
                name: "write_hit".into(),
                ops: vec![VliwOp::set(intr.drop_flag, Operand::Const(1))],
                hash: None,
                salu: Some(SaluCall {
                    array: 0,
                    addr: Operand::Arg(0),
                    operand: Operand::Field(nc_value),
                    instr: SaluInstr::WRITE,
                    alt_instr: None,
                    select_flag: None,
                    output: None,
                }),
            },
            // 2: miss → to the server.
            ActionDef {
                name: "miss".into(),
                ops: vec![
                    VliwOp::set(intr.egress_spec, Operand::Arg(0)),
                    VliwOp::set(intr.egress_valid, Operand::Const(1)),
                ],
                hash: None,
                salu: None,
            },
        ];
        let mut table = Table::new(
            "cache",
            KeySpec::new(vec![
                (nc_op, MatchKind::Exact),
                (nc_key1, MatchKind::Exact),
                (nc_key2, MatchKind::Exact),
            ]),
            actions,
            1024,
        );
        table.set_default_action(2, vec![u64::from(miss_port)]);
        let stage = ingress.stage_mut(0)?;
        let t_idx = stage.add_table(table);
        stage.add_array(RegArray::new("kv", 65_536));
        let table = TableRef { gress: Gress::Ingress, stage: 0, table: t_idx };

        let mut switch = Switch::assemble(SwitchConfig::default(), ft, parser, ingress, egress);
        switch.set_strip_on_emit(vec![f.rc_valid]);
        switch.provision()?;

        let mut nc = NativeCache { switch, table };
        for (key, bucket) in keys {
            nc.add_key(*key, *bucket)?;
        }
        Ok(nc)
    }

    /// Install the read + write entries of one key.
    pub(crate) fn add_key(&mut self, key: u64, bucket: u32) -> SimResult<()> {
        let (k1, k2) = ((key >> 32), key & 0xffff_ffff);
        for (op, action) in [(0u64, 0usize), (1, 1)] {
            self.switch.apply_op(&ControlOp::InsertEntry {
                table: self.table,
                entry: TableEntry {
                    matches: vec![
                        MatchValue::Exact(op),
                        MatchValue::Exact(k1),
                        MatchValue::Exact(k2),
                    ],
                    priority: 0,
                    action,
                    data: vec![u64::from(bucket)],
                },
            })?;
        }
        Ok(())
    }
}

/// A native stateless load balancer: hash the five-tuple, pick a port and
/// a DIP from per-bucket pools (the standalone equivalent of Figure 16).
pub struct NativeLb {
    /// Switch.
    pub switch: Switch,
    ports: rmt_sim::switch::ArrayRef,
    dips: rmt_sim::switch::ArrayRef,
    /// Pool mask.
    pub pool_mask: u32,
}

impl NativeLb {
    /// Build.
    pub fn build(pool_size: u32) -> SimResult<NativeLb> {
        assert!(pool_size.is_power_of_two());
        let (ft, parser, f) = fields::build()?;
        let intr = ft.intrinsics();
        let ipv4_dst = f.ipv4_dst;
        let scratch = f.scratch;

        let limits = StageLimits::default();
        let mut ingress = Pipeline::new(Gress::Ingress, 2, limits);
        let egress = Pipeline::new(Gress::Egress, 1, limits);

        // Stage 0: hash → scratch; SALU picks the egress port.
        let mut t0 = Table::new(
            "pick_port",
            KeySpec::new(vec![(ipv4_dst, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "port".into(),
                ops: vec![],
                hash: Some(HashCall {
                    spec: CRC16_BUYPASS,
                    input: HashInput::Fields(f.five_tuple()),
                    dst: scratch,
                    mask: Some(Operand::Arg(0)),
                }),
                salu: None,
            }],
            16,
        );
        t0.set_default_action(0, vec![u64::from(pool_size - 1)]);
        ingress.stage_mut(0)?.add_table(t0);

        // Stage 1: port lookup + DIP rewrite (two tables, two arrays).
        let mut t_port = Table::new(
            "port_pool",
            KeySpec::new(vec![(ipv4_dst, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "set_port".into(),
                ops: vec![VliwOp::set(intr.egress_valid, Operand::Const(1))],
                hash: None,
                salu: Some(SaluCall {
                    array: 0,
                    addr: Operand::Field(scratch),
                    operand: Operand::Const(0),
                    instr: SaluInstr::READ,
                    alt_instr: None,
                    select_flag: None,
                    output: Some(intr.egress_spec),
                }),
            }],
            16,
        );
        t_port.set_default_action(0, vec![]);
        let mut t_dip = Table::new(
            "dip_pool",
            KeySpec::new(vec![(ipv4_dst, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "set_dip".into(),
                ops: vec![],
                hash: None,
                salu: Some(SaluCall {
                    array: 1,
                    addr: Operand::Field(scratch),
                    operand: Operand::Const(0),
                    instr: SaluInstr::READ,
                    alt_instr: None,
                    select_flag: None,
                    output: Some(ipv4_dst),
                }),
            }],
            16,
        );
        t_dip.set_default_action(0, vec![]);
        let stage = ingress.stage_mut(1)?;
        stage.add_table(t_port);
        stage.add_table(t_dip);
        stage.add_array(RegArray::new("ports", pool_size as usize));
        stage.add_array(RegArray::new("dips", pool_size as usize));

        let mut switch = Switch::assemble(SwitchConfig::default(), ft, parser, ingress, egress);
        switch.set_strip_on_emit(vec![f.rc_valid]);
        switch.provision()?;
        Ok(NativeLb {
            switch,
            ports: rmt_sim::switch::ArrayRef { gress: Gress::Ingress, stage: 1, array: 0 },
            dips: rmt_sim::switch::ArrayRef { gress: Gress::Ingress, stage: 1, array: 1 },
            pool_mask: pool_size - 1,
        })
    }

    /// Fill bucket `i` with `(port, dip)`.
    pub fn set_bucket(&mut self, i: u32, port: u16, dip: u32) -> SimResult<()> {
        self.switch.apply_op(&ControlOp::WriteReg {
            array: self.ports,
            addr: i,
            value: u32::from(port),
        })?;
        self.switch.apply_op(&ControlOp::WriteReg { array: self.dips, addr: i, value: dip })?;
        Ok(())
    }
}

/// A native heavy-hitter detector: 2-row CMS + 2-row BF across four
/// stages, reporting a flow the first time both counters cross the
/// threshold (the standalone equivalent of Figure 17).
pub struct NativeHh {
    /// Switch.
    pub switch: Switch,
}

impl NativeHh {
    /// Build.
    pub fn build(rows: u32, threshold: u32) -> SimResult<NativeHh> {
        assert!(rows.is_power_of_two());
        let (mut ft, parser, f) = fields::build()?;
        let intr = ft.intrinsics();
        let c1 = ft.register("hhmeta.c1", 32)?;
        let c2 = ft.register("hhmeta.c2", 32)?;
        let b1 = ft.register("hhmeta.b1", 32)?;
        let b2 = ft.register("hhmeta.b2", 32)?;
        let mask = u64::from(rows - 1);

        let limits = StageLimits::default();
        let mut ingress = Pipeline::new(Gress::Ingress, 5, limits);
        let egress = Pipeline::new(Gress::Egress, 1, limits);

        let count_action = |spec, dst| ActionDef {
            name: "count".into(),
            ops: vec![],
            hash: Some(HashCall {
                spec,
                input: HashInput::Fields(f.five_tuple()),
                dst: f.scratch,
                mask: Some(Operand::Const(mask)),
            }),
            salu: Some(SaluCall {
                array: 0,
                addr: Operand::Field(f.scratch),
                operand: Operand::Const(1),
                instr: SaluInstr {
                    cond: SaluCond::Always,
                    update_true: Some(SaluExpr::MemPlusOp),
                    update_false: None,
                    output: SaluOutput::NewMem,
                },
                alt_instr: None,
                select_flag: None,
                output: Some(dst),
            }),
        };
        // Hash ordering hazard: the hash and SALU run in the same action
        // with parallel reads, but the SALU addr comes from `scratch`
        // written by the *same* action's hash — split into hash stage +
        // count stage pairs instead: here we exploit that HashCall output
        // is applied before reads? No — keep it honest: the hash of stage
        // k addresses the SALU of stage k+1. Four rows → four (hash,
        // count) stages would need eight; instead each stage hashes for
        // its own row into `scratch` *in a preceding table of the same
        // stage*, which executes before the counting table.
        let hash_only = |spec| ActionDef {
            name: "hash".into(),
            ops: vec![],
            hash: Some(HashCall {
                spec,
                input: HashInput::Fields(f.five_tuple()),
                dst: f.scratch,
                mask: Some(Operand::Const(mask)),
            }),
            salu: None,
        };
        let _ = count_action; // the split version below supersedes it

        let specs = [CRC16_BUYPASS, CRC16_MCRF4XX, CRC16_AUG_CCITT, CRC16_DDS_110];
        // Stages 0/1: CMS rows; stage 2: BF row 1 (gated on thresholds);
        // stage 3: BF row 2 + report.
        for (idx, dst) in [(0usize, c1), (1, c2)] {
            let stage = ingress.stage_mut(idx)?;
            let mut th = Table::new(
                format!("hash_{idx}"),
                KeySpec::new(vec![(f.ipv4_src, MatchKind::Ternary)]),
                vec![hash_only(specs[idx])],
                4,
            );
            th.set_default_action(0, vec![]);
            stage.add_table(th);
            let mut tc = Table::new(
                format!("cms_{idx}"),
                KeySpec::new(vec![(f.ipv4_src, MatchKind::Ternary)]),
                vec![ActionDef {
                    name: "count".into(),
                    ops: vec![],
                    hash: None,
                    salu: Some(SaluCall {
                        array: 0,
                        addr: Operand::Field(f.scratch),
                        operand: Operand::Const(1),
                        instr: SaluInstr {
                            cond: SaluCond::Always,
                            update_true: Some(SaluExpr::MemPlusOp),
                            update_false: None,
                            output: SaluOutput::NewMem,
                        },
                        alt_instr: None,
                        select_flag: None,
                        output: Some(dst),
                    }),
                }],
                4,
            );
            tc.set_default_action(0, vec![]);
            stage.add_table(tc);
            stage.add_array(RegArray::new(format!("cms_row_{idx}"), rows as usize));
        }
        // Stage 2: both counters over threshold → BF row 1 membership.
        {
            let stage = ingress.stage_mut(2)?;
            let mut th = Table::new(
                "hash_bf1",
                KeySpec::new(vec![(f.ipv4_src, MatchKind::Ternary)]),
                vec![hash_only(specs[2])],
                4,
            );
            th.set_default_action(0, vec![]);
            stage.add_table(th);
            let mut t = Table::new(
                "bf1",
                KeySpec::new(vec![(c1, MatchKind::Range), (c2, MatchKind::Range)]),
                vec![ActionDef {
                    name: "probe_set".into(),
                    ops: vec![],
                    hash: None,
                    salu: Some(SaluCall {
                        array: 0,
                        addr: Operand::Field(f.scratch),
                        operand: Operand::Const(1),
                        instr: SaluInstr {
                            cond: SaluCond::Always,
                            update_true: Some(SaluExpr::MemOrOp),
                            update_false: None,
                            output: SaluOutput::OldMem,
                        },
                        alt_instr: None,
                        select_flag: None,
                        output: Some(b1),
                    }),
                }],
                4,
            );
            t.insert(
                rmt_sim::table::EntryHandle(u64::MAX - 1),
                TableEntry {
                    matches: vec![
                        MatchValue::Range { lo: u64::from(threshold), hi: u64::MAX },
                        MatchValue::Range { lo: u64::from(threshold), hi: u64::MAX },
                    ],
                    priority: 0,
                    action: 0,
                    data: vec![],
                },
            )?;
            stage.add_table(t);
            stage.add_array(RegArray::new("bf_row_1", rows as usize));
        }
        // Stage 3: BF row 2 probe+set; the old bit lands in b2.
        {
            let stage = ingress.stage_mut(3)?;
            let mut th = Table::new(
                "hash_bf2",
                KeySpec::new(vec![(f.ipv4_src, MatchKind::Ternary)]),
                vec![hash_only(specs[3])],
                4,
            );
            th.set_default_action(0, vec![]);
            stage.add_table(th);
            let mut t = Table::new(
                "bf2",
                KeySpec::new(vec![(c1, MatchKind::Range), (c2, MatchKind::Range)]),
                vec![ActionDef {
                    name: "probe_set2".into(),
                    ops: vec![],
                    hash: None,
                    salu: Some(SaluCall {
                        array: 0,
                        addr: Operand::Field(f.scratch),
                        operand: Operand::Const(1),
                        instr: SaluInstr {
                            cond: SaluCond::Always,
                            update_true: Some(SaluExpr::MemOrOp),
                            update_false: None,
                            output: SaluOutput::OldMem,
                        },
                        alt_instr: None,
                        select_flag: None,
                        output: Some(b2),
                    }),
                }],
                4,
            );
            t.insert(
                rmt_sim::table::EntryHandle(u64::MAX - 2),
                TableEntry {
                    matches: vec![
                        MatchValue::Range { lo: u64::from(threshold), hi: u64::MAX },
                        MatchValue::Range { lo: u64::from(threshold), hi: u64::MAX },
                    ],
                    priority: 0,
                    action: 0,
                    data: vec![],
                },
            )?;
            stage.add_table(t);
            stage.add_array(RegArray::new("bf_row_2", rows as usize));
        }
        // Stage 4: report the first sighting — either Bloom row was clear
        // (the second row rescues row-1 false positives, Figure 17).
        {
            let stage = ingress.stage_mut(4)?;
            let mut t = Table::new(
                "report",
                KeySpec::new(vec![
                    (c1, MatchKind::Range),
                    (c2, MatchKind::Range),
                    (b1, MatchKind::Exact),
                    (b2, MatchKind::Exact),
                ]),
                vec![ActionDef {
                    name: "mark_report".into(),
                    ops: vec![VliwOp::set(intr.report_flag, Operand::Const(1))],
                    hash: None,
                    salu: None,
                }],
                4,
            );
            let thr = MatchValue::Range { lo: u64::from(threshold), hi: u64::MAX };
            for (b1v, b2v, prio) in [(Some(0u64), None, 1), (None, Some(0u64), 0)] {
                t.insert(
                    rmt_sim::table::EntryHandle(u64::MAX - 3 - prio as u64),
                    TableEntry {
                        matches: vec![
                            thr,
                            thr,
                            b1v.map(MatchValue::Exact).unwrap_or(MatchValue::Ternary { value: 0, mask: 0 }),
                            b2v.map(MatchValue::Exact).unwrap_or(MatchValue::Ternary { value: 0, mask: 0 }),
                        ],
                        priority: prio,
                        action: 0,
                        data: vec![],
                    },
                )?;
            }
            stage.add_table(t);
        }

        let mut switch = Switch::assemble(SwitchConfig::default(), ft, parser, ingress, egress);
        switch.set_strip_on_emit(vec![f.rc_valid]);
        switch.provision()?;
        Ok(NativeHh { switch })
    }
}

/// A plain forwarding switch (the Figure 13(a) contrast program): every
/// IPv4 packet goes to a fixed port.
pub fn native_forwarder(out_port: u16) -> SimResult<Switch> {
    let (ft, parser, f) = fields::build()?;
    let intr = ft.intrinsics();
    let limits = StageLimits::default();
    let mut ingress = Pipeline::new(Gress::Ingress, 1, limits);
    let egress = Pipeline::new(Gress::Egress, 1, limits);
    let mut t = Table::new(
        "fwd",
        KeySpec::new(vec![(f.ipv4_dst, MatchKind::Ternary)]),
        vec![ActionDef {
            name: "to_port".into(),
            ops: vec![
                VliwOp::set(intr.egress_spec, Operand::Arg(0)),
                VliwOp::set(intr.egress_valid, Operand::Const(1)),
            ],
            hash: None,
            salu: None,
        }],
        16,
    );
    t.set_default_action(0, vec![u64::from(out_port)]);
    ingress.stage_mut(0)?.add_table(t);
    let mut switch = Switch::assemble(SwitchConfig::default(), ft, parser, ingress, egress);
    switch.set_strip_on_emit(vec![f.rc_valid]);
    switch.provision()?;
    Ok(switch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::{CacheOp, ParsedPacket};

    fn cache_frame(op: CacheOp, key: u64, value: u32) -> Vec<u8> {
        let flows = traffic_free_flow();
        traffic_free_nc_frame(&flows, op, key, value)
    }

    // Local frame builders (the traffic crate depends on nothing here, and
    // baselines must not depend on traffic).
    fn traffic_free_flow() -> netpkt::FiveTuple {
        netpkt::FiveTuple {
            src_addr: std::net::Ipv4Addr::new(10, 0, 0, 1),
            dst_addr: std::net::Ipv4Addr::new(10, 0, 0, 2),
            src_port: 4000,
            dst_port: netpkt::NETCACHE_PORT,
            protocol: 17,
        }
    }

    fn traffic_free_nc_frame(t: &netpkt::FiveTuple, op: CacheOp, key: u64, value: u32) -> Vec<u8> {
        ParsedPacket {
            ethernet: netpkt::EthernetRepr {
                dst: netpkt::Mac([1; 6]),
                src: netpkt::Mac([2; 6]),
                ethertype: netpkt::EtherType::Ipv4,
            },
            ipv4: Some(netpkt::Ipv4Repr {
                src_addr: t.src_addr,
                dst_addr: t.dst_addr,
                protocol: netpkt::IpProtocol::Udp,
                ttl: 64,
                dscp: 0,
                ecn: 0,
            }),
            udp: Some(netpkt::UdpRepr { src_port: t.src_port, dst_port: t.dst_port }),
            tcp: None,
            netcache: Some(netpkt::NetCacheRepr { op, key, value }),
            payload_len: 0,
        }
        .emit()
    }

    #[test]
    fn native_cache_serves_hits_and_misses() {
        let mut nc = NativeCache::build(&[(0x8888, 512)], 32).unwrap();
        // Write.
        let out = nc.switch.process_frame(0, &cache_frame(CacheOp::Write, 0x8888, 777)).unwrap();
        assert!(out.dropped);
        // Read hit reflects with the value.
        let out = nc.switch.process_frame(5, &cache_frame(CacheOp::Read, 0x8888, 0)).unwrap();
        assert_eq!(out.emitted[0].0, 5);
        let reply = ParsedPacket::parse(&out.emitted[0].1).unwrap();
        assert_eq!(reply.netcache.unwrap().value, 777);
        // Miss forwards to the server.
        let out = nc.switch.process_frame(5, &cache_frame(CacheOp::Read, 0x9999, 0)).unwrap();
        assert_eq!(out.emitted[0].0, 32);
    }

    #[test]
    fn native_lb_spreads_and_rewrites() {
        let mut lb = NativeLb::build(16).unwrap();
        for i in 0..16 {
            lb.set_bucket(i, (i % 2) as u16, 0x0a00_0a00 + i).unwrap();
        }
        let mut ports_seen = std::collections::HashSet::new();
        for n in 0..32u16 {
            let t = netpkt::FiveTuple {
                src_addr: std::net::Ipv4Addr::new(10, 1, 0, (n % 250 + 1) as u8),
                dst_addr: std::net::Ipv4Addr::new(10, 9, 9, 9),
                src_port: 10_000 + n,
                dst_port: 80,
                protocol: 17,
            };
            let frame = {
                let mut p = ParsedPacket::parse(&traffic_free_nc_frame(&t, CacheOp::Read, 0, 0)).unwrap();
                p.netcache = None;
                p.payload_len = 10;
                p.emit()
            };
            let out = lb.switch.process_frame(0, &frame).unwrap();
            assert_eq!(out.emitted.len(), 1);
            ports_seen.insert(out.emitted[0].0);
            // DIP rewritten into the pool range.
            let fwd = ParsedPacket::parse(&out.emitted[0].1).unwrap();
            let dst = u32::from_be_bytes(fwd.ipv4.unwrap().dst_addr.octets());
            assert_eq!(dst & 0xffff_f000, 0x0a00_0000, "dst {dst:#x} from the DIP pool");
        }
        assert_eq!(ports_seen.len(), 2, "both ports used");
    }

    #[test]
    fn native_hh_reports_exactly_once_per_heavy_flow() {
        let mut hh = NativeHh::build(1024, 10).unwrap();
        // Plain UDP flow (not the cache port — port 7777 would require a
        // cache header for the parser to accept the packet).
        let t = netpkt::FiveTuple { dst_port: 5353, ..traffic_free_flow() };
        let frame = {
            let mut p = ParsedPacket::parse(&traffic_free_nc_frame(&t, CacheOp::Read, 0, 0)).unwrap();
            p.netcache = None;
            p.payload_len = 0;
            p.emit()
        };
        let mut reports = 0;
        for _ in 0..50 {
            let out = hh.switch.process_frame(0, &frame).unwrap();
            reports += out.reports.len();
        }
        assert_eq!(reports, 1, "reported exactly once after crossing the threshold");
    }

    #[test]
    fn forwarder_forwards_everything() {
        let mut sw = native_forwarder(9).unwrap();
        let t = traffic_free_flow();
        let frame = traffic_free_nc_frame(&t, CacheOp::Read, 0, 0);
        let out = sw.process_frame(0, &frame).unwrap();
        assert_eq!(out.emitted[0].0, 9);
    }

    #[test]
    fn conventional_deployment_is_orders_slower() {
        let t = ConventionalTiming::default();
        assert!(t.deployment_delay(true).as_secs_f64() >= 5.0);
        assert!(t.deployment_delay(false).as_secs_f64() >= 100.0);
    }
}

#[cfg(test)]
mod debug_probe {
    use super::*;
    use netpkt::ParsedPacket;

    #[test]
    fn probe_hh_counters() {
        let mut hh = NativeHh::build(1024, 3).unwrap();
        let t = netpkt::FiveTuple {
            src_addr: std::net::Ipv4Addr::new(10, 0, 0, 1),
            dst_addr: std::net::Ipv4Addr::new(10, 0, 0, 2),
            src_port: 4000,
            dst_port: 80,
            protocol: 17,
        };
        let frame = ParsedPacket {
            ethernet: netpkt::EthernetRepr { dst: netpkt::Mac([1;6]), src: netpkt::Mac([2;6]), ethertype: netpkt::EtherType::Ipv4 },
            ipv4: Some(netpkt::Ipv4Repr { src_addr: t.src_addr, dst_addr: t.dst_addr, protocol: netpkt::IpProtocol::Udp, ttl: 64, dscp: 0, ecn: 0 }),
            udp: Some(netpkt::UdpRepr { src_port: t.src_port, dst_port: t.dst_port }),
            tcp: None,
            netcache: None,
            payload_len: 0,
        }.emit();
        let ftab = hh.switch.field_table();
        let c1 = ftab.lookup("hhmeta.c1").unwrap();
        let c2 = ftab.lookup("hhmeta.c2").unwrap();
        let b1 = ftab.lookup("hhmeta.b1").unwrap();
        for i in 0..6 {
            let out = hh.switch.process_frame(0, &frame).unwrap();
            println!("pkt {i}: c1={} c2={} b1={} reports={}", out.phv.get(c1), out.phv.get(c2), out.phv.get(b1), out.reports.len());
        }
    }
}
