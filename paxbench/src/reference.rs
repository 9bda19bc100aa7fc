//! Pinned digests of the `paper_flow` design points, one per circuit:
//! FNV-1a over the exact bits of every point a study produced
//! ([`crate::common::study_digest`]). The data seed is fixed, so these
//! hold for every workload seed; a change to the program that alters
//! any measured value, in any circuit, shows up as a failed check.

use crate::common::Size;

/// `(circuit label, digest)` for the given input size.
pub fn paper_flow(size: Size) -> &'static [(&'static str, u64)] {
    match size {
        Size::Full => FULL,
        Size::Tiny => TINY,
    }
}

const FULL: &[(&str, u64)] = &[
    ("cardio mlp-c", 0x5b08_9035_e1ca_17c0),
    ("cardio mlp-r", 0x2f91_0e94_5749_87a8),
    ("cardio svm-c", 0x992a_9f48_234a_b9d8),
    ("cardio svm-r", 0xe700_8c79_9c02_b067),
    ("pendigits mlp-c", 0x4e19_eb97_fcb8_01aa),
    ("pendigits svm-c", 0x43ae_a56c_0431_7e1e),
    ("redwine mlp-c", 0x564f_d5bc_3b6d_780a),
    ("redwine mlp-r", 0x111b_8d67_cf5a_85cd),
    ("redwine svm-c", 0x6c4b_271a_a0d1_c001),
    ("redwine svm-r", 0xa24c_e38c_0239_bb50),
    ("whitewine mlp-c", 0xc122_ec1d_681c_4a13),
    ("whitewine mlp-r", 0xf608_099e_0730_91ab),
    ("whitewine svm-c", 0x1575_c337_dd93_f636),
    ("whitewine svm-r", 0x5914_b096_ec73_7705),
];

const TINY: &[(&str, u64)] = &[
    ("cardio mlp-c", 0x91de_a6dd_3a5d_2781),
    ("cardio mlp-r", 0xee94_0279_7e70_a5f7),
    ("cardio svm-c", 0x06e0_ba11_aae3_4ff4),
    ("cardio svm-r", 0xa3ff_7f36_bfec_fc72),
    ("pendigits mlp-c", 0x69ae_a449_cb3e_9cd5),
    ("pendigits svm-c", 0x7239_f8d2_76e5_849a),
    ("redwine mlp-c", 0xe65f_b30b_e18c_252d),
    ("redwine mlp-r", 0x2020_3631_6fd8_b908),
    ("redwine svm-c", 0x13a0_dee9_86d1_618b),
    ("redwine svm-r", 0xd6a1_7c40_34ee_2f66),
    ("whitewine mlp-c", 0x6f40_ac26_45bc_3354),
    ("whitewine mlp-r", 0xbadd_236f_7b61_8ca6),
    ("whitewine svm-c", 0xcd31_977e_c256_8633),
    ("whitewine svm-r", 0xc987_df50_750d_7494),
];
