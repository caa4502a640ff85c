//! Pins the ZeRO baselines byte for byte: ZeRO-3 on a PCIe server (the
//! three-leg all-gather chain) and on an NVLink server (shard plus ring),
//! ZeRO-Offload, cluster ZeRO-3 at one and at three servers, and a
//! two-server ds-hetero step through the facade.

use mobius::zero::{
    simulate_cluster_zero_step, simulate_zero_offload_step_traced, simulate_zero_step_traced,
    ClusterZeroConfig, ZeroConfig,
};
use mobius::{ClusterConfig, FineTuner, System};
use mobius_model::{GptConfig, Model};
use mobius_obs::Obs;
use mobius_profiler::{ModelProfile, Profiler};
use mobius_sim::{SimTime, TraceRecorder};
use mobius_topology::{Cluster, GpuSpec, Topology, COMMODITY_NIC_GBPS};

fn profile(gpu: GpuSpec) -> ModelProfile {
    Profiler::new(gpu).profile(&Model::from_config(&GptConfig::gpt2_small()), 1)
}

fn commodity() -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2])
}

/// FNV-64 digests of what a ZeRO run leaves behind: the Chrome trace and
/// metrics JSON of its observer (0 when unobserved), and the step time,
/// bandwidth samples, traffic map, per-GPU compute and non-overlapped
/// communication, plus whatever run-specific fields `extra` renders.
fn digests(step: SimTime, t: &TraceRecorder, extra: &str, obs: Option<&Obs>) -> [u64; 3] {
    let per_gpu: Vec<_> = t
        .gpus()
        .into_iter()
        .map(|g| (g, t.compute_time(g), t.non_overlapped_comm(g)))
        .collect();
    let report = format!(
        "{step:?}|{:?}|{:?}|{per_gpu:?}|{extra}",
        t.samples(),
        t.traffic_by_kind(),
    );
    let digest = |s: String| mobius::ckpt::fnv64(s.as_bytes());
    [
        obs.map_or(0, |o| digest(o.chrome_trace_json())),
        obs.map_or(0, |o| digest(o.metrics_json())),
        digest(report),
    ]
}

/// `cfg` with `set` applied to it.
fn with<C>(mut cfg: C, set: impl FnOnce(&mut C)) -> C {
    set(&mut cfg);
    cfg
}

#[test]
fn zero_simulator_paths_are_pinned() {
    let strict = with(ZeroConfig::default(), |c| c.strict_validation = true);
    let p = profile(GpuSpec::rtx3090ti());

    // ZeRO-3 on a PCIe-only server: fetch shard, publish, gather.
    let obs = Obs::new();
    let pcie = simulate_zero_step_traced(&p, &commodity(), &strict, Some(&obs)).unwrap();
    let pcie = digests(pcie.step_time, &pcie.trace, "", Some(&obs));

    // ZeRO-3 on NVLink: a DRAM shard plus the ring.
    let dc = Topology::data_center(GpuSpec::v100(), 4);
    let nvlink =
        simulate_zero_step_traced(&profile(GpuSpec::v100()), &dc, &ZeroConfig::default(), None)
            .unwrap();
    let nvlink = digests(nvlink.step_time, &nvlink.trace, "", None);

    // ZeRO-Offload: gradient streams, then the parameter refresh.
    let obs = Obs::new();
    let offload = simulate_zero_offload_step_traced(&p, &commodity(), Some(&obs)).unwrap();
    let offload = digests(offload.step_time, &offload.trace, "", Some(&obs));

    // Cluster ZeRO-3: compute-only at one server, the NIC mesh at three.
    let cluster_cfg = with(ClusterZeroConfig::default(), |c| c.strict_validation = true);
    let cluster = |servers| {
        let obs = Obs::new();
        let c = Cluster::new(commodity(), servers, COMMODITY_NIC_GBPS);
        let rep = simulate_cluster_zero_step(&p, &c, &cluster_cfg, Some(&obs)).unwrap();
        let nic = format!("{:?}|{:?}", rep.nic_bytes_per_server, rep.total_nic_bytes);
        digests(rep.step_time, &rep.trace, &nic, Some(&obs))
    };
    let (one, three) = (cluster(1), cluster(3));

    // The facade: the intra-server ZeRO-3 step plus the NIC side.
    let obs = Obs::new();
    let rep = FineTuner::new(GptConfig::gpt2_small())
        .topology(commodity())
        .system(System::DeepSpeedHetero)
        .cluster(ClusterConfig::new(2, COMMODITY_NIC_GBPS))
        .observe(obs.clone())
        .run_step()
        .unwrap();
    let extra = format!("{:?}|{:?}|{:?}", rep.drain_time, rep.price_usd, rep.cluster);
    let facade = digests(rep.step_time, &rep.trace, &extra, Some(&obs));

    assert_eq!(
        [pcie, nvlink, offload, one, three, facade],
        [
            [0xf5d7279f5ea8d32b, 0xb5e8109e55736a88, 0x9639b7ed023138bd],
            [0, 0, 0x5d4599f99c6f7242],
            [0x18810d63b86bf97d, 0x4061a95127d5e13d, 0xd9e91b02401209c8],
            [0x1876707bdddc4fa3, 0x04ffcdf70c71f271, 0xb54cf2ea505c928e],
            [0x99fd52b49ee39e63, 0xedbd4114155d61e5, 0xd70f192ebafcd9d9],
            [0x7722183afc8a0e2d, 0x70c4f03282365f63, 0x043082f31544794f],
        ],
        "update the pins only for a deliberate change of ZeRO behaviour"
    );
}
