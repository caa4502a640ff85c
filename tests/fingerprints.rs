//! Pinned fingerprint values.
//!
//! Every committed checkpoint header, plan-cache key and serve digest is a
//! function of these hashes, so any change to what they frame or how they
//! stream it must show up here first, not as an orphaned checkpoint.

use mobius::fingerprint::{model_fingerprint, topology_fingerprint};
use mobius::sim::{FaultSchedule, SimTime};
use mobius::{ClusterConfig, FineTuner, System};
use mobius_model::{GptConfig, Model};
use mobius_serve::cache_key;
use mobius_topology::{GpuSpec, Topology};

fn topo(groups: &[usize]) -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), groups)
}

#[test]
fn model_fingerprints_are_pinned() {
    let gpt2 = Model::from_config(&GptConfig::gpt2_small());
    assert_eq!(model_fingerprint(&gpt2), 0x4834_cc32_0ca0_0150);
    let gpt3b = Model::from_config(&GptConfig::gpt_3b());
    assert_eq!(model_fingerprint(&gpt3b), 0xdcf3_0cd2_21eb_cebf);
    assert_eq!(
        model_fingerprint(&Model::llama2_7b()),
        0xc155_d2c4_37eb_d72e
    );
}

#[test]
fn topology_fingerprints_are_pinned() {
    assert_eq!(topology_fingerprint(&topo(&[2, 2])), 0x6aa5_d7f3_04b2_eeab);
    assert_eq!(topology_fingerprint(&topo(&[1, 3])), 0x12b6_f80e_7ca7_dbb1);
    let dc = Topology::data_center(GpuSpec::v100(), 4);
    assert_eq!(topology_fingerprint(&dc), 0x54f0_b30f_6b01_4cee);
}

#[test]
fn cache_key_is_pinned() {
    let gpt2 = Model::from_config(&GptConfig::gpt2_small());
    let key = cache_key(
        model_fingerprint(&gpt2),
        topology_fingerprint(&topo(&[2, 2])),
        System::Mobius,
        0,
    );
    assert_eq!(key, 0x7b7b_2062_f611_167d);
}

#[test]
fn config_fingerprints_are_pinned() {
    let tuner = FineTuner::new(GptConfig::gpt2_small()).topology(topo(&[2, 2]));
    assert_eq!(tuner.config_fingerprint(), 0x6780_b048_b966_7db7);

    let faults = FaultSchedule::parse(
        "stall:5:40,slow:1:2.0:0:500,crash:3",
        0,
        4,
        SimTime::from_secs(10),
    )
    .unwrap();
    let faulted = tuner
        .faults(faults)
        .cluster(ClusterConfig::new(2, 12.5).switch_gbps(10.0));
    assert_eq!(faulted.config_fingerprint(), 0x99b3_69a3_6b33_eea5);
}
