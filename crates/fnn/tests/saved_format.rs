//! The saved-network format, pinned to a file written before the
//! consequents moved to a flat in-memory layout.
//!
//! `explore --save-fnn` writes a network as JSON and `explain --fnn` reads
//! it back, possibly with a later build. The JSON below was written by the
//! earlier layout; loading it must give the same scores and rules, and
//! saving it again must give the same bytes.

use dse_fnn::{extract_rules, Fnn, Observation, RuleExtractionConfig};

/// A 12-rule, 3-output network with nonzero consequents and moved
/// parameter centers, as written by `serde_json::to_string`.
const SAVED: &str = concat!(
    r#"{"inputs":["#,
    r#"{"name":"CPI","kind":"Metric","memberships":[{"kind":"InvSigmoid","center":1.0,"width":0.3},{"kind":"Bell","center":2.0,"width":0.8},{"kind":"Sigmoid","center":3.0,"width":0.3}]},"#,
    r#"{"name":"L1","kind":"Parameter","memberships":[{"kind":"InvSigmoid","center":14.5,"width":4.0},{"kind":"Sigmoid","center":18.0,"width":4.0}]},"#,
    r#"{"name":"ROB","kind":"Parameter","memberships":[{"kind":"InvSigmoid","center":72.0,"width":16.0},{"kind":"Sigmoid","center":60.0,"width":16.0}]}],"#,
    r#""output_names":["l1","rob","decode"],"#,
    r#""consequents":[[0.0,0.33343481750184895,0.49693418170582243],"#,
    r#"[0.407170446212898,0.10989180611255847,-0.24339332432784969],"#,
    r#"[-0.47263275609403166,-0.46099433877410834,-0.21440960566669795],"#,
    r#"[0.14144923925474648,0.4252183103142822,0.49227436125433555],"#,
    r#"[0.3084421955605224,-0.03258790378483195,-0.3570095390135903],"#,
    r#"[-0.4994808359469084,-0.38739112780531687,-0.07786706832515598],"#,
    r#"[0.2713420356022263,0.4822613467470147,0.4473955860702521],"#,
    r#"[0.1845141301762513,-0.172405172713708,-0.44145797325245506],"#,
    r#"[-0.4855211900438437,-0.2821379519809276,0.06503723055145695],"#,
    r#"[0.3790661107936225,0.49990349456820704,0.36596446479633005],"#,
    r#"[0.045511208099923935,-0.29813689020462236,-0.4898391660502992],"#,
    r#"[-0.4318943254086602,-0.15383402557477924,0.20262796927267704]],"#,
    r#""rule_labels":[[0,0,0],[0,0,1],[0,1,0],[0,1,1],[1,0,0],[1,0,1],[1,1,0],[1,1,1],[2,0,0],[2,0,1],[2,1,0],[2,1,1]]}"#,
);

fn load() -> Fnn {
    serde_json::from_str(SAVED).expect("the saved network loads")
}

#[test]
fn saved_network_saves_to_the_same_bytes() {
    assert_eq!(serde_json::to_string(&load()).expect("serializes"), SAVED);
}

#[test]
fn saved_network_scores_match_the_recorded_bits() {
    const SCORES: [[u64; 3]; 3] = [
        [0x3fac_66ab_8596_bcbe, 0x3fc8_68b6_c9b9_bae5, 0x3fcd_4718_90fa_625d],
        [0x3fa9_dac5_74b0_7618, 0xbfbd_7b01_14a5_ff0f, 0xbfcc_6e86_f5cc_0223],
        [0xbfbf_0887_20f0_a70f, 0xbfb0_74c9_8bd2_67f7, 0x3f9a_0805_7912_66be],
    ];
    let fnn = load();
    let observations = [[0.8, 8.0, 32.0], [2.1, 20.0, 96.0], [3.6, 15.0, 60.0]];
    for (values, golden) in observations.into_iter().zip(SCORES) {
        let scores = fnn.forward(&Observation { values: values.to_vec() }).scores;
        let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, golden, "scores at {values:?}");
    }
}

#[test]
fn saved_network_rules_match_the_recorded_ones() {
    const RULES: [(&str, u64); 11] = [
        (
            "IF CPI is high AND L1 is low AND ROB is enough THEN rob can increase",
            0x3fdf_fe6b_3a14_e668,
        ),
        (
            "IF CPI is low AND L1 is low AND ROB is low THEN decode can increase",
            0x3fdf_cdc5_06ac_39d1,
        ),
        (
            "IF CPI is low AND L1 is enough AND ROB is enough THEN decode can increase",
            0x3fdf_816c_528f_c94a,
        ),
        (
            "IF CPI is avg AND L1 is enough AND ROB is low THEN rob can increase",
            0x3fde_dd5e_b219_d064,
        ),
        (
            "IF CPI is avg AND L1 is enough AND ROB is low THEN decode can increase",
            0x3fdc_a221_18a2_f9a0,
        ),
        (
            "IF CPI is low AND L1 is enough AND ROB is enough THEN rob can increase",
            0x3fdb_36c6_dc1d_7445,
        ),
        (
            "IF CPI is low AND L1 is low AND ROB is enough THEN l1 can increase",
            0x3fda_0f14_a198_74b8,
        ),
        (
            "IF CPI is high AND L1 is low AND ROB is enough THEN l1 can increase",
            0x3fd8_429e_8138_5a76,
        ),
        (
            "IF CPI is high AND L1 is low AND ROB is enough THEN decode can increase",
            0x3fd7_6bf6_37f3_18ac,
        ),
        ("IF CPI is low AND L1 is low AND ROB is low THEN rob can increase", 0x3fd5_56fe_fd21_29b1),
        ("IF CPI is avg AND ROB is low THEN l1 can increase", 0x3fd2_8d97_a8f2_9389),
    ];
    let fnn = load();
    let rules = extract_rules(&fnn, &RuleExtractionConfig::default());
    let got: Vec<(String, u64)> =
        rules.iter().map(|r| (r.to_string(), r.strength.to_bits())).collect();
    let want: Vec<(String, u64)> = RULES.iter().map(|&(r, s)| (r.to_string(), s)).collect();
    assert_eq!(got, want);
    // Rule r's antecedent labels are r's mixed-radix digits, input 0
    // most significant.
    for (r, labels) in fnn.rule_labels().iter().enumerate() {
        assert_eq!(labels, &[r / 4, r / 2 % 2, r % 2], "rule {r}");
    }
}
