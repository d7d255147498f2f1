//! Golden Fig.-4 corpus: the exact bytes the host ships, pinned by SHA-256.
//!
//! For each of the 20 Table-1 sites, in cache and non-cache mode, the test
//! builds a first snapshot (full XML) and then four successive generations
//! whose delta reply from the immediate predecessor carries the head only,
//! the body only, both, and neither. Every byte of those replies is pinned,
//! so any change to generation, escaping, section layout or delta assembly
//! that alters the wire shows up here, site by site.
//!
//! On a mismatch the failure message prints the complete recomputed table,
//! ready to paste over [`GOLDEN`] once a wire change is intended.

use std::sync::Arc;

use rcb_browser::{Browser, BrowserKind};
use rcb_core::{AgentConfig, CacheMode, ContentSnapshot, RcbAgent};
use rcb_crypto::{SessionKey, Sha256};
use rcb_origin::{sites::TABLE1_SIZES_KB, OriginRegistry};
use rcb_sim::link::Pipe;
use rcb_sim::profiles::NetProfile;
use rcb_url::Url;
use rcb_util::{DetRng, SimTime};

/// `(site, cache mode, [full, head, top, both, neither])`, SHA-256 hex.
type Row = (&'static str, bool, [&'static str; 5]);

fn hex(bytes: &[u8]) -> String {
    Sha256::digest(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn loaded_host(site: &str, origins: &mut OriginRegistry) -> Browser {
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut b = Browser::new(BrowserKind::Firefox);
    b.navigate(
        &Url::parse(&format!("http://{site}/")).unwrap(),
        origins,
        &mut pipe,
        &profile,
        SimTime::ZERO,
    )
    .unwrap();
    b
}

fn change_head(host: &mut Browser, n: u64) {
    host.mutate_dom(|doc| {
        let head = doc.head().expect("page has a head");
        let meta = doc.create_element_with_attrs(
            "meta",
            vec![
                ("name".into(), "rcb-golden".into()),
                ("content".into(), format!("head {n}")),
            ],
        );
        doc.append_child(head, meta).unwrap();
    })
    .unwrap();
}

fn change_top(host: &mut Browser, n: u64) {
    host.mutate_dom(|doc| {
        let body = doc.body().expect("page has a body");
        let div = doc.create_element("div");
        let t = doc.create_text(format!("golden <update> & café {n}"));
        doc.append_child(div, t).unwrap();
        doc.append_child(body, div).unwrap();
    })
    .unwrap();
}

/// The five pinned digests of one site in one mode.
fn digests(site: &str, mode: CacheMode, origins: &mut OriginRegistry) -> [String; 5] {
    let mut agent = RcbAgent::new(
        SessionKey::generate_deterministic(&mut DetRng::new(0x60_1D)),
        AgentConfig::builder().cache_mode(mode).build(),
    );
    let mut host = loaded_host(site, origins);
    let mut prev = ContentSnapshot::build(&mut agent, &host, SimTime::from_secs(1), None).unwrap();
    let mut out = [
        hex(prev.xml().as_bytes()),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ];
    for (step, slot) in out.iter_mut().enumerate().skip(1) {
        let n = step as u64;
        match step {
            1 => change_head(&mut host, n),
            2 => change_top(&mut host, n),
            3 => {
                change_head(&mut host, n);
                change_top(&mut host, n);
            }
            _ => host.mutate_dom(|_| {}).unwrap(),
        }
        let now = SimTime::from_secs(1 + n);
        let snap = ContentSnapshot::build(&mut agent, &host, now, Some(&prev)).unwrap();
        let delta = snap
            .delta_response_for(prev.dom_version)
            .unwrap_or_else(|| panic!("{site} step {step}: predecessor not in the ring"));
        *slot = hex(delta.body.as_slice());
        prev = Arc::clone(&snap);
    }
    out
}

#[test]
fn figure4_and_delta_bytes_match_the_golden_corpus() {
    let mut origins = OriginRegistry::with_alexa20();
    let mut actual = Vec::new();
    for &(_, site, _) in TABLE1_SIZES_KB.iter() {
        for cache in [true, false] {
            let mode = if cache {
                CacheMode::Cache
            } else {
                CacheMode::NonCache
            };
            actual.push((site, cache, digests(site, mode, &mut origins)));
        }
    }
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN.iter())
            .all(|((site, cache, got), (gsite, gcache, want))| {
                site == gsite && cache == gcache && got.iter().zip(want.iter()).all(|(g, w)| g == w)
            });
    if !matches {
        let mut table = String::new();
        for (site, cache, d) in &actual {
            table.push_str(&format!(
                "    (\n        {site:?},\n        {cache},\n        [\n"
            ));
            for h in d {
                table.push_str(&format!("            {h:?},\n"));
            }
            table.push_str("        ],\n    ),\n");
        }
        panic!("Fig.-4 golden corpus drifted; recomputed table:\n{table}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (
        "yahoo.com",
        true,
        [
            "f9478a05a7b560eb8c36444dec00e86d82574c7fe431dced9603f7121e2f4e00",
            "957da93782e2268643388ae0485caea94c8f783745610007f711e8b107e9b3d7",
            "2d84f479de92e61a993362d982d5e384e07291f447efda075d6f7682fe1be59b",
            "56d731c5e907b593852307d160d14657b6e55d9559d350b75ce6e879b74252e8",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "yahoo.com",
        false,
        [
            "55e36e97735517f0f9c15f993249d75d559015cc9574202a6c4e5aa5b527af18",
            "4886ed2a6f736a5893cb7e5b3006180855316439326f81258961da98a92f4353",
            "937066d270aefaa77d845aff673e174da8d34d49c19e5b9a84acebb2929e3d34",
            "5c63e50f30b593bd6a0516d7e5c1bfb85361c7e6f8269e9d5ebdba843d74f67f",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "google.com",
        true,
        [
            "2afabcdc634b0f7f315eba8e582963550691fe08343e2d70bf0521bf70e1981a",
            "4f1e118b9e0ba36d0a5a5a3fe2348970bcdbac4f41f994c8437adf12ebd137bb",
            "70462069b69b76c361c2861bae7d450752faf4962dc7f2e7c53f2ae327f77381",
            "1db57329d913119461c6b960b8c67cceaa4562e96f2dcad2fa150e442d53b09e",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "google.com",
        false,
        [
            "c15f8df958687e50b279147ce8df2d901743724355bbfa657a9fe105cc897e89",
            "286c616a9bbf9c1c6964ea92ce776311f1688ad7848b0ed452f4ded632debeb1",
            "b0f5ee88f4de2c9de2cbf9296f09c9fee7ff2ee26ef9435eaea9b2044b80d518",
            "04c962a4a77e6faca37a7e6381aba3eeb94f72de88f90121a7d1e0f4c16fcbb4",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "youtube.com",
        true,
        [
            "b199b648473e3f4a7ce6e6a0c5c95dad5eb7dba49fd756e535d3cc4dff550d1c",
            "7f085dff8762f41515cef8dccb4ce744a38f064b0c3dc722648ce8361c28ce99",
            "1441ce49922ccb6a4a5c06834b439441f6a51ab917776f5ae8515d2dd67fdb80",
            "b0dbdd80ef8b44b136cee2c0ddb6cc31591506fcf2ee981086c72f312a4f6304",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "youtube.com",
        false,
        [
            "fdd3125e8aee8e7bf40f59d3f36e5f2239ddc88c3aef757a265c77a19d7d22d4",
            "fdf8aab420db2725a2cef446f48d4c915fa8caa031c1d15b2f279bdfa25623c2",
            "0608630d1097f38f8dc3b0be3e85bbccfc824e2aa6e86872f8941d92f19de3ab",
            "0882c00e936b16871024ee4d4982d54162079c2b1799617708a3b54f30e07139",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "live.com",
        true,
        [
            "72a74d4264de45547ec795c31fdd28711c808a95bbad9201d4917a26b44bac54",
            "5e41614e2bdc94e991ac327d4243946892bd3338ac7712cba1265a3739c1bf27",
            "4737435e69c1faa6acb565719e6a47c42d095b78e462827fc2e69b9090a1c690",
            "11f4d18f7073e280e0750c1708efc11e7ab0f4604b92aedd22d7b5bc7c2afd51",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "live.com",
        false,
        [
            "4db9a856c82075578d17d36f2f3192ce5245f3cb92039d03169cdde470e68364",
            "4c93aa1b5a437b21853ee3fd23db22732c671e84c7be4ed26ed3074e06516462",
            "278737ed9dedba3b841b31beec0715c948af0c14f4824b985fb5da5413518009",
            "7f901cd88b52a69d24ca643cbf3edd7edc4846f0eb8b9c40763de0ca68698795",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "msn.com",
        true,
        [
            "90ea6021787353ddcde92b1e2a6c69364f0d95ce19abda0a43c6e914697ff510",
            "7d16a30920de8174b316f7948bd4e307f68a3fb3177a4045978513e688fb01f1",
            "b197f3a040e71060c387e16908a46a0f681db83084ef3bf04aaa3880b19dd832",
            "8a3f047d12472e110269b87c22dcaa83a9c588802fa60780ffd3a3e34afa4ef8",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "msn.com",
        false,
        [
            "6ce37247485181809cdea60c90a877d4797d94374d01e94106371ad3232eb139",
            "5a3c74e1030efd64f62f16753aa3a12be5aba1e1632ef656e528ce1471a76901",
            "dd088b707ef59277af8be5ccbddcd034f00f84a72e26215606b67367cd961718",
            "5e65ec65f456c4de8dcb70de8d361e74bfc8e17f01193996b5ce52a605d4d13e",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "myspace.com",
        true,
        [
            "50af3bb470741b765528ed3b1c98854481c9c44485a70915508dafbe1e3231eb",
            "fa87e51a22c5b234ac03eba850d3e3512b8faae643d48714f25a9ee275dd7c75",
            "c8f1b56273c3e5b1524eb437c198e5265a60110554c8e7361f3e8ba1bc9522b3",
            "c8f459ad6b909485ce1ddb229323c945ba0acb7528c5dd496c492eaf2c4e6b6d",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "myspace.com",
        false,
        [
            "21549149fdbe864fe683335090d870d21be3c53f080743dfd69e6a34a6bcf6b7",
            "0cab97013e58424d0b080a6c3f034c08b7e0b6133ce895177441a06931b07772",
            "682bbaf86521c11de7b6ccf4734f38ee2d0460766802bb36aab864d77fa55907",
            "98c9b3381d8d2353123109bd44418be248e7d3cd051183008870367b8f52878a",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "wikipedia.org",
        true,
        [
            "98f3fe9af043a6b719ae3adca2b6d41d53f7ebfc3a75b2de3d9dead764bce873",
            "dbd6267f3f345c17c8eed9964e2061aa6544a8b1eb147dc1748cac64cadd580e",
            "d8eaf013e67d7651c66acd1e69f46ea4dc15ec4addd736d40782348e95ac8923",
            "70afa4cc90688c411a7895cc603f586be00862dc378e07259e0b4901281b68d1",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "wikipedia.org",
        false,
        [
            "9af7802b5de8050eab78778faae1454527d966c477490bd0c27e5c0bcff93229",
            "7501d0003c32ca2597e5264bc4ffa3788cbcb0585b2323cc118df492adc7e398",
            "402429f27659720dc0102f97bd656079c4dd257bfe368096f1b80260649d2b09",
            "3c92d4ad0b10a0cbf4e8f5c420fe4981ff105301f93c4bbd69464dcb79ab57aa",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "facebook.com",
        true,
        [
            "38fa183a80da6ac47e7ef04100301daec537810685791c5c87efe4927e9ee21f",
            "bb95ac6e538996c3888ce5bf062d6862962aa6989e076ee9b3ac661793ab25b3",
            "57dd075d0f2dd7c010d761db3c5834b1af8e962424fab70b63b3703c79d3789e",
            "18a28aef822480c02dfa930590dea5d11440448678e73f80c758f22d8ea5a49a",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "facebook.com",
        false,
        [
            "379d2042958628060631a28688611e3fd5191035bdcf3a62ae690333942ec29d",
            "ca79475c6bc5ac3672c4d78bd48cd1dd50cd054260b154d29872fc36fbc09fcf",
            "1c62f01bf745fc43dfc78dc643d39f42a73786baca1ac43a404587a8cc07ab0f",
            "66214f8ba69bdb3dd1272812ab615294dfeaf4c8d1aacecd14ce828476880800",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "yahoo.co.jp",
        true,
        [
            "fa2bfaf44fe123a956f60efb1d37b8ba0b188fba958dd3bbc0c310939e836f49",
            "23ae094abce7ef410886d25d909d75f4d73eb9f733732029e1495c82379f24ae",
            "0c0f8f6bc377b297f67b29583a2be496aa9ea8bb817179d2ea222c9f253af900",
            "84093fc9ec2cabc7cc22066ef6e133c27849bdaf9eadaa666dbcb7ac290f9375",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "yahoo.co.jp",
        false,
        [
            "c81bd0aaf610c4f555c8b24dd0ee42c028db58097af24aa96339746ab9dad9d8",
            "d9a3ac7ee1bb6ed377a51b4d3a9100fd9bc0180465e95b6a38129db0eb7782e7",
            "a1c95f48ad472d15a2d4b4a58ec67507479b2909dcb44a8a8eb28ddcf348bfb9",
            "0b64d4af6cdd323c28cfd15df35ca71fdf548db56dfc525673c9ff490d63a5f7",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "ebay.com",
        true,
        [
            "febd4ddaf48044a892df735b5d1e233278df3a09a60321af609b71dd6a3ea9bb",
            "2d6fcb425511d1d411c53f020bd107de26e470b5c1167cc9123abc479ace7dca",
            "235041ee40f404993a487a5b3cfe2819a443de401ae9cc98fa398836f2a96028",
            "34c8c1d370f73ba02d5c208f6c70b984742447e69d56b758ee5d250f161952a1",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "ebay.com",
        false,
        [
            "44c945dafc8a73c480de2cbea3413916ed1c125d70d3a4dba4f06321380083a4",
            "f057082163fd0a71d278a5ce4e774e1c48b9a7b51c5d8578ba1369f152b2c427",
            "a35861418ede5d253b4b60b40b83d0a82af9d4f7c35bc70be9d137ebb188c55b",
            "4250e64f2a9f5c2caca8f34eb3c67781e383aaaa7d1525c084e83c1d2cede0b1",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "aol.com",
        true,
        [
            "6a58048d52ed9c78eb3c24ce2dfcf5f70ffc6370a6499502d891a1ab35b8edb3",
            "7bb949224128e9d9a0ef680089e2c1f3eca36df6f7b6384ddf2c661b90006fcd",
            "ac13b796b63daacd565844b34f386e133cf1b13da753b865e53ff787f26035fa",
            "76e97582f20a54c3b6734c469f0858a1e71427cea5c4afa79dcfd36de9b475ab",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "aol.com",
        false,
        [
            "71e12fec08e429a4b2af5624f8e34d9d2d21e29e60bb1756546bb505f24507d1",
            "78a7fc109cfcb58fc7931b93f1684b253bb07dbd19902147dbbfa7cddf66343e",
            "8be030829e48479ce4c656a523998b68c75338ffb78df0384ad4e75defc67f08",
            "008306d3d65f21a25bf987d87b657bbedaba91e38ab6633eadeee0e65e59bb1a",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "mail.ru",
        true,
        [
            "c4a5cc2275490644489306e99e3a2190bd8edf06cafbed7cdb45d9f0a00aec45",
            "d637b38621e953a080b8ca93c7ac71432f41b8814371ca5ab9e5da3cad9a773c",
            "52126fecae2eec00cc515c002d32abe824f99a001913828c2dfca126ddf21bd0",
            "02f873310c22c853404bf5915cd2c9ee8c20ea3e8c2eb64f7a16651ece1c7843",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "mail.ru",
        false,
        [
            "005c4081c1eed3629a273a2e1674b4008fd81f9297ab819f46f2a48ef7d6d0ad",
            "e219f8a5c30feaaf40bbbd1ae34548794379171104d738d1f505ca32da2eddae",
            "506ebabbf4255dd6fc266c87ed800bf94326310348e2bb6993804e9824445de1",
            "b125096232ebd0a9267c62a83deeca61f52ac8cd3aeecc64325105672dc21b28",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "amazon.com",
        true,
        [
            "25a1521270109b1db9d3bbd9fad6c1e815a4068b2813900865d8ae942b74cef2",
            "06b0395982ee1ab0deff189b128e17301b226b402f3c9a37c23801e0519719e8",
            "1c0ca1dd60f8ce775c975c96020dab97962cedf3b64a696708b44733e3e29e07",
            "e8603f421a3566968e9bc59310e5e58029f3529d1d229f96226f8e54f6fa922f",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "amazon.com",
        false,
        [
            "e74008a3a3fe88e1bce9f85e934b24de972eac5fb1733485f1b04c0c61805181",
            "f6d561d526e2e251d51b24f96f1b1604a1b045bd4311378100886268cc1fc4ab",
            "6deee5d3694a0fb432af2d62238eb871bcbe6ede1f0206d4c61b6a67a57805c1",
            "bc5d4c5806f76e398309eab7c82cc986b8de1b39e269d1699992ff39df3cc047",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "cnn.com",
        true,
        [
            "cac0ad2364a428d016d1d6a3d86e820415d11bf94abd8b6b7bf991645a9f53e1",
            "0a2d55f4af6d5ec6e9003ba1b63006915f9bca01f361b7570f3afa4010ab2bae",
            "2e52152203041159fff165495c0335a0bcfea8c4c2162a9270d43a2eaabcd4a2",
            "7ebf505a3775883cb98f45fb5e9dbc5def1e67ba1fec354df390c2373d0d7b23",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "cnn.com",
        false,
        [
            "3f25bd9f6816f01f1ccf189b97ad0ab0e1edbfb3011f7cf5addba0672ebead97",
            "ccccfbe18b61a48f6808d72e7265f4c5b3c36ae67c673b57156c1f19e5d9a0f0",
            "9b305df9a23a4fe036f41fc09710ebb3429e669831e19a00b330587524025622",
            "8c46ade183f5ca27d01232f28d11efbd59485fe077b7a00dc334d4edcf7a1be5",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "espn.go.com",
        true,
        [
            "f48f97aa47f18cb0ab80fa3070e52e8233300afc82c0792180a77ac4af179d22",
            "4c4d55f4541aadf60afaabaa102059649775d083708bf638819c982f9bef0a28",
            "18ee38ae35cef10299bf173a574bcfbaaa9d361774c54c917e5c0b0a592ca61d",
            "417dbd737838f61d1561a4960cc9b7965283e9ea855f619e917a9ddaf54fd377",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "espn.go.com",
        false,
        [
            "6d6f8fb61cebe3c13b935444df3e3c5e586eaebcf798fe95827e41c3b2cf5be8",
            "eaf075d1721c9f71b487b3f28df3dca5c3e99e3a2e27ceae8d9ad87144edd6ed",
            "13c0ccc7fac9ac4916bb8d253fddad5e64ab8a276030655797016f92f631f460",
            "60ca3b0562ee96c4f2d3f054a4ec2017d5523d43c563b2d379957d9190d6679c",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "free.fr",
        true,
        [
            "e0945b6f2a244add15d8f0ca58381462f3cb62a6fb7249955836b517b0104a74",
            "6e97dc7abb0b74469b93518a779bcb50385a9cd4da0cacf10699e64283c1aae7",
            "87619b85b317378b5ec113d6174c9ea037843fa053183f4b942470ea769ec5f8",
            "735dacce79c83fb40b062d1048270181264459533a29ae50a148ba46ca88a16d",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "free.fr",
        false,
        [
            "31fdd5692638e12fee7c7a9e8962da63d7cc1c19400906dc7eb047ff6cfad0c5",
            "e913e9875046f83593ad60ca91b3129643cdb28b1706bb8b62245e2f8578489f",
            "3d47c84926d6b2606a59906a0031abbbf7b6e731b5ffa9a078ff215da8d510c0",
            "4677570b484aecdca1494eedf8d9c9c2e2d1478e801f5143a2ab863815ae0320",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "adobe.com",
        true,
        [
            "3d01f624a3d8642a7052da57e7a24bf0aa5c855062032f8299636c047283c612",
            "552fa6701a1711a2c22f34f542ee63ea4289a231eea580f82035f16be5663b42",
            "558b856968e6093469dcb7ccb7af0739cc966ff7e02f8ac1996de1984a4f5e16",
            "b13ebe432905490f8187c9993e69481c76e1f64517d1b796bef173c165d295c9",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "adobe.com",
        false,
        [
            "cbe26bd65e25e88e723c9a856bb0d3f51536deca7630e41ac9194fce26748911",
            "0cf02b2eb9cec8339484d25f49e6731037f05029bae405feedd056a8cbd98586",
            "1a30450b805d0f8d5979547298da441b75ddb0e9608f58781e7b95a1c9ba35da",
            "4fc9441532374d0f441f97abe3048e5d82254543c5f50278ca95ac21a633e250",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "apple.com",
        true,
        [
            "21ca2d5d26468567c653ae78d7b090d79e464bfd357e083371ff360336f92147",
            "7e62f6299addd1273e8b547de25af88ff57ba5fe87229ae6c0d8576e8530dc74",
            "3379f715ca1bd72ea385a51cba192a82f30a44a899c32fa496660d9c21da30fe",
            "9cb09b3c176175fffac2c4ef8b000744dc8aa2af2e6dbdd502448bc3da43ff54",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "apple.com",
        false,
        [
            "7a1eae0b1a7ad77a1764b348d4fe865b8af888180c0513b264836bfab5d2b9ee",
            "542a11bbfbc8e5de46fb87dd24b71212a43f35cc1f4f221bfb98e935249e605b",
            "34c976c5edf5bad8f0924b1a69ead23a79079b11bdbcee3f931f52f456374ebb",
            "1d3971cce886058971b1cb399c52a358d9f60db085f68de87caed3454536a74d",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "about.com",
        true,
        [
            "323e89ee0a6a7211764efb1e8158312662090bb15faa57dafa9590627aab1aa9",
            "2ade6721eb6581cf41cb46f0c0cf2175c54b8f6cb746b234a6e323e25ad8f461",
            "ccba1017143f3b699b538e11fe269ed727a32cc76b7e1d5c9cf63766c45e43ee",
            "3eac4d0e8cb8e7540b5400e6674a02e298ccb002e68576d77137af3a35571ecb",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "about.com",
        false,
        [
            "0a6fe82a6664ae5e8f8602c8bfd591a57cc4ba049d5fb971aeda44173268b8d3",
            "8e9a11b168d89a8404c687b6e1ccb0138ecf7b5334162c30764a6bd9f2c3871f",
            "5bf40226d150e8acfea8b171a75ac3fc96507ea331bed5451ae33655e25e31c0",
            "db7e2fe342d15c5c82d5f64fc13b20cb9158933b5bd30548de85c988282ff447",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "nytimes.com",
        true,
        [
            "ebc62387f801b496617e299554e1920d28687dc875decac2d2c6a37c0f9621c2",
            "cab17cdf45b15e28db0558fe58e79a3b6e2096b131564eeabb317ef260802518",
            "9d8e2591d1f5452e381b279bda6149fcba3e9ffb446fe99eb3a1c4c7f7ee29f3",
            "2fe204166fb8972087ee0977ebb1c2601d5afbd275522eaa4df146448b8fa949",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
    (
        "nytimes.com",
        false,
        [
            "6641e36e567fd758c1b6cd741adbdc5e101f73f890b2651996944bd7f119dd55",
            "2ad22c55b752df194eff7e2d18788ef591a4868fa1ada0cd9846d0c4708f15ab",
            "9c9c6d78d92e7c90392fdeb4c56eaa40a5bb1cad4a480616848bd2ff91b43ffb",
            "a184a3dcdef19396c18b09f8265cf57c85bde8e5f52c7eed6a8b1b68135c2b6c",
            "c19c85dadd01fdb8d2c9ab7842534444001b02086093bfd91f19750462a0a8b8",
        ],
    ),
];
