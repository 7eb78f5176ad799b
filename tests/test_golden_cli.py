"""Golden CLI guard: exit status and stdout digest of every subcommand.

Each row is ``(argv, exit status, sha256 of stdout)``, recorded by calling
``treeorder.cli.main`` in-process.  ``@name`` in an argv stands for the
fixture document ``FIXTURES[name]``, written to a temporary file.  Any
change to a report, an artifact, or an exit status, down to one byte,
fails the row that shows it.  After a deliberate output change, re-record
the table with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from treeorder.cli import main

FIXTURES = {
    "poset": {
        "version": "1", "kind": "poset",
        "body": {"elements": ["a", "b", "c"],
                 "relations": [["a", "lt", "b"], ["a", "lt", "c"], ["b", "siml", "c"]]},
    },
    # well formed, but b and c face upward with no common upper bound
    "sick-poset": {
        "version": "1", "kind": "poset",
        "body": {"elements": ["a", "b", "c"],
                 "relations": [["a", "lt", "b"], ["a", "lt", "c"], ["b", "simu", "c"]]},
    },
    "cone": {
        "version": "1", "kind": "group-order",
        "body": {"name": "spec-dihedral", "group": {"family": "dihedral"}, "cones": {
            "positive": {"op": "all", "args": [{"op": "parity", "component": 1, "value": 0},
                                               {"op": "cmp", "component": 0, "rel": ">", "value": 0}]},
            "upper": {"op": "all", "args": [{"op": "parity", "component": 1, "value": 1},
                                            {"op": "cmp", "component": 0, "rel": ">", "value": 0}]},
            "lower": {"op": "all", "args": [{"op": "parity", "component": 1, "value": 1},
                                            {"op": "cmp", "component": 0, "rel": "<=", "value": 0}]},
        }},
    },
    "tree": {
        "version": "1", "kind": "tree",
        "body": {"nodes": ["a", "b", "c", "d"],
                 "arcs": [["e1", "a", "b"], ["e2", "c", "b"], ["e3", "b", "d"]],
                 "boundary": ["a", "c", "d"]},
    },
    "scenario": {"version": "1", "kind": "scenario", "body": {"name": "dihedral-line", "radius": 3}},
}

GOLDEN = [
    ('check-cones z-standard --radius 3', 0, '080d614d34feecfdc5934b9bc0bb3eb80b592941dac8642bc3ae28b836425948'),
    ('check-cones z-standard --radius 3 --json', 0, '55e3b4abc3e9473e56958d86baa71fc9a8cca0e2d761c1bd800f8f629480900d'),
    ('check-cones z-broken --radius 3', 1, '2a34cdeb24d3262859c7c37f724a24700bc0f1513c1da12bdd6fc686c2c10680'),
    ('check-cones z-broken --radius 3 --json', 1, 'aedd0111b6f4db719522909797fa51376b7a5bad9bcd66f73567ef2899cdd020'),
    ('check-cones z2-lex --radius 3', 0, 'bdb306c7cd1ab78508e17948b7dfdc749c918db89cbcd512f0ac0524ddf1f2dc'),
    ('check-cones z2-lex --radius 3 --json', 0, '62542cd1cebacb991089b0f17e2c578ff2e87d475741d51d8e816c148a8d8acc'),
    ('check-cones z3-lex --radius 3', 0, '6fcf715e9595d98a64e28a9e3eb5a18e950562245f0142a8fb5fb8f64b413aab'),
    ('check-cones z3-lex --radius 3 --json', 0, '9b701232075fab778d97fb24cc195b2b7b2b8f0818f54add402d7d5f9d682afc'),
    ('check-cones z2-product --radius 3', 1, '3dd5933703cbb44da512da5d9b2f1689317b49c448a1286c21777841f2465450'),
    ('check-cones z2-product --radius 3 --json', 1, 'e0660019f48ad786547adf912fbab9668389dee6c73816c68bcc728432ed9222'),
    ('check-cones free2-standard --radius 3', 0, '0561c7bb8533c0442922567c8f6d07f4c650cde0c1a79fd03c7a385c46096145'),
    ('check-cones free2-standard --radius 3 --json', 0, '8851bf51da05892a5c36fc8a669c5beebf08980cfa79fdc8637209f97ae1fea7'),
    ('check-cones dihedral-standard --radius 3', 0, '62e2d0f8e2e6a59c6c1dd7ba47c33d93d8cb4a0ec2e1d606f25d1d4841b8d61a'),
    ('check-cones dihedral-standard --radius 3 --json', 0, 'f5842684271473c096accf8121df31af3e59e57391ff2faccd01c887301a74ee'),
    ('check-cones @cone --radius 3', 0, '5e3dc7a434fca19522b2446af4cc8b5d75c35fd7f7f1b7cc652af1ba7cd90908'),
    ('check-cones @cone --radius 3 --json', 0, '6e02c17fdfa096e9823c2527381233de846802372dd7465a4770ca2eddca28d2'),
    ('check-poset @poset', 0, '9908ebd10e0e349908f6ff947b8ceceed247b8453a295c921ea15f5571deb472'),
    ('check-poset @poset --json', 0, '496226a99d6f3372d8af960aa48398e7ff33391c99d5c601e77a2a74d37ea13e'),
    ('check-poset @sick-poset', 1, '43babaa4a2f841ebb51514e9fed24688ecf5aa5b7bcfaaa85d0d3ef1a7ba4a9b'),
    ('check-poset @sick-poset --json', 1, '1a7389aa9301ec821face513e2801479641aac48c48f4c0f56379096f755c406'),
    ('build-tree z-standard --radius 3', 0, 'f5c8de170fae47b30306b28dc2c8418b0f7308733d74267e56e3c3c18301653c'),
    ('build-tree z-standard --radius 3 --json', 0, 'cbc37acc6b2f0e7e7da2d8cddc49aef964bad0a045d836fd3d3f0256f61ac82f'),
    ('build-tree z-broken --radius 3', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('build-tree z-broken --radius 3 --json', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('build-tree z2-lex --radius 2', 0, '0041f5de1eab1f1acf25bb05afbb756f4c0ba0fb025ee914933a37889a2b3f26'),
    ('build-tree z2-lex --radius 2 --json', 0, '8b654707d113b20925b69415d00ae60a8e82e1fc3795ffac3ea28f4a51fc036c'),
    ('build-tree z3-lex --radius 1', 0, '580e5bb59fffdb3dd106e77608839b8409976f434a0630c7d722e2347ce6062d'),
    ('build-tree z3-lex --radius 1 --json', 0, 'c42423a261f3220cdb7656457ee62ee57ef8018aca511697397ae66e7271478d'),
    ('build-tree z2-product --radius 2', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('build-tree z2-product --radius 2 --json', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('build-tree free2-standard --radius 1', 0, '184d181ffa00187e29a22b8ed536a81d3365b4864b0133e41540e5208a2bd82c'),
    ('build-tree free2-standard --radius 1 --json', 0, 'd8c49188170dee29417457cce9aab2dc4377fee342ed4be98f5288e893a4d6d7'),
    ('build-tree dihedral-standard --radius 3', 0, '4458b47bbcf976ad25345d3b8fd0515595b02c6075c41c15cc22f1834ae23631'),
    ('build-tree dihedral-standard --radius 3 --json', 0, 'afca47e2d6b60dfd4acc9c5d8440438dbdb200c73211a77f7f0f5b1db9c71da8'),
    ('build-tree z-standard --radius 3 --emit dot', 0, '19972f89dba4fc452aef41a205fd447967a74e5d69cd59a93fb6de592be3e668'),
    ('build-tree z-standard --radius 3 --emit json', 0, 'bbd7be396c9b82d27ee78cbfab5975404ffdbb70af7ff5ac3458a42d88dea8a6'),
    ('build-tree dihedral-standard --radius 3 --emit dot', 0, '8d0bdb9f7161307b959a601d844cfc55c227cdebac75b07d536dbbfaf3a62cfe'),
    ('build-tree dihedral-standard --radius 3 --emit json', 0, '2647fc291b1575980dd34ff6bb462dc5497dc3bf2f7183cb314aa85ad902c004'),
    ('build-tree z2-lex --radius 2 --emit dot', 0, 'f53c360e62c5890764f7faccdfe643e415ebc2257f3044ca90d1afa6f61bbdc3'),
    ('build-tree z2-lex --radius 2 --emit json', 0, '57ea0981512a293edb31869fe48875a94b94de288768a670a29c3d35aa28fc29'),
    ('build-tree dihedral-standard --radius 3 --stages 99', 0, '4458b47bbcf976ad25345d3b8fd0515595b02c6075c41c15cc22f1834ae23631'),
    ('build-tree z-standard --radius 4 --stages 2', 0, '01755ee2f451f0f1e01a5308ec35d9ea8549b1e57188350f1ae553e3e9de08ba'),
    ('build-tree @cone --radius 2 --emit json', 0, '51b3eaf514614535e4ef5a124df9029764eb7dcb6a9613752d27483e1aacf262'),
    ('blowup alternating-line --radius 2', 0, '82816e1c34eca5b7e4f8ec52d6befd34e247da4906d9330e30d608d2f8774471'),
    ('blowup alternating-line --radius 2 --json', 0, '7f4ced0fa4f5d9e87c505658fdd843c74f1a7255742a23dceec1dfd4e9f748ab'),
    ('blowup alternating-line --radius 2 --emit dot', 0, '47ba086f2e03aa6e3c7e564c12545494ffbadd19aa85efd4695a86f5d922c1a2'),
    ('blowup alternating-line --radius 2 --emit json', 0, 'f03819ca15bd12bd525840d876d8d4667a56b8c66f5ad19d8caddb66ec643265'),
    ('blowup @tree', 0, '731274c8402c8b05c146b7acf939b438a27b7811024a3893abb3e27a79e165b8'),
    ('blowup @tree --json', 0, '0ef3bf4ed705d577155c6d43a44cc7c42fe9a91ddeb9594c0376ffa38753e998'),
    ('blowup @tree --emit dot', 0, 'e6cda88f401a729c7a804ef24aa73b7f7097e8e610d009efb7869461cd6f8722'),
    ('blowup @tree --emit json', 0, 'cb1c1d9a32579fbde2d0eeb258e613827681c561d2931e8814949a67b8339b8e'),
    ('orbit-order dihedral-line --radius 3', 0, 'c8cb9d61aef2b07406781eed0ee4616466d1112950a5980730c3c4a35cf8d65b'),
    ('orbit-order dihedral-line --radius 3 --json', 0, 'de7a8c72b184511c04fa4a9851f8cc542c0709c78edbb8bbb22a8a8a5859b291'),
    ('orbit-order z-line --radius 3', 0, 'be2c12b396d2c1ae58e14d79cbc59d6a40a26b121e6a352bb5abd2bc5bab33b3'),
    ('orbit-order z-line --radius 3 --json', 0, 'c3897a8a24903543288b5cbd630a50bcf52668763ca47cbd2a1059fb63c7207d'),
    ('orbit-order @scenario', 0, 'c8cb9d61aef2b07406781eed0ee4616466d1112950a5980730c3c4a35cf8d65b'),
    ('orbit-order @scenario --json', 0, 'de7a8c72b184511c04fa4a9851f8cc542c0709c78edbb8bbb22a8a8a5859b291'),
    ('quotient z2-lex --subgroup second-factor --radius 3', 0, 'e980ebdbdc9a0b4515fcc635e44e3541641b79524ba3fa5bffcd534145acd841'),
    ('quotient z2-lex --subgroup second-factor --radius 3 --json', 0, '34cdfef7e4b1358b50e41a126e8071f12ffbc80b9bdcb6a95664889100e2d266'),
    ('quotient z-standard --subgroup even --radius 3', 1, 'e3bf583e4f33c97b52aebc2e36644ca70bc0d857d8eba8946171132dd5afc7c2'),
    ('quotient z-standard --subgroup even --radius 3 --json', 1, '0bf916620c2f50d5745a55ebaff2ed71f2e190e2c45bc76131f8978de996b743'),
    ('quotient z3-lex --subgroup second-factor --radius 1', 0, '3276e922349de94eee25a4446fb6a873b12268ad98485d77e72f1213e64c3369'),
    ('quotient z3-lex --subgroup second-factor --radius 1 --json', 0, 'fdcd152165cfb84b8dc848c1b798263918508650f2da735e963f56d7777e1e57'),
    ('roundtrip z-standard --radius 4', 0, 'b5833253afe20a2da4752f25d539e47bf682b84eac3280ea8d7bb0b168f37120'),
    ('roundtrip z-standard --radius 4 --json', 0, '1df053ec18bc57b898d32aed4a23d5e9ebd884bddb9de7fef78225fa6e3636b6'),
    ('roundtrip z-broken --radius 3', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('roundtrip z-broken --radius 3 --json', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('roundtrip z2-lex --radius 2', 0, 'e7dacb6aba18c567330dcebc04589c802a3bb888a66e3aa0caa78caa55d42cc0'),
    ('roundtrip z2-lex --radius 2 --json', 0, 'e25d80b057feb934f6a1d8b4dc01c839548e4a815b8c7a58d59af95610584256'),
    ('roundtrip z3-lex --radius 1', 0, '5ba14ae4e740bbe2c2728374afdc1344a3cbe918d654ef1395e15087d6f14741'),
    ('roundtrip z3-lex --radius 1 --json', 0, '980ceebaa0d0bcf359c17003f9a5e8eeffe41c9f176cca0f1a2337bb448332e8'),
    ('roundtrip z2-product --radius 2', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('roundtrip z2-product --radius 2 --json', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('roundtrip free2-standard --radius 1', 0, '1da6528d8d031240c2b88259834a93b6a2cee91a1d1ecd448b167359d7d0768f'),
    ('roundtrip free2-standard --radius 1 --json', 0, 'e618d3ee06c9f08af571dd32d4393c9ad200a959c17e79b62d666f3f35895fcf'),
    ('roundtrip dihedral-standard --radius 4', 0, '999930e0bbb5eb81e076fa599f20db8098aaa5b9a52582bb55bf065c48aa2105'),
    ('roundtrip dihedral-standard --radius 4 --json', 0, 'd16b1eec15ea62e7aa4bee476ceb8c56f92b4057630555a6de370b685a6d8701'),
    ('roundtrip @cone --radius 3', 0, '435e0a7ad52d764c9bafe0a1da0e8bc993bd5886d11ce56b8d1bbdcd4c838ebe'),
    ('examples list', 0, 'dcd97fa278dd0954220a8cfbf98880de755754bb763a1df779f1368fe3cfdeec'),
    ('examples list --json', 0, 'd894389c7e334c8ddf49e27a4fc5034598270d0bfd3daa8b4c13e20987f1b8af'),
    ('examples run z --radius 3', 0, 'fad1cdb4d8f7ca210843954161d0bc02df721510f3953aa1ec80e98933b25a71'),
    ('examples run z --radius 3 --json', 0, 'd1ffb898f69f99bc7f992d914cb033d654f7ff43675ac9dda6645e611c3015e2'),
    ('examples run dihedral --radius 3', 0, '9c9ec93d1a19285bbb2db7929aeb5af0c5ee498c6f0935613351ca6ab07a35e9'),
    ('examples run dihedral --radius 3 --json', 0, 'd1ffb898f69f99bc7f992d914cb033d654f7ff43675ac9dda6645e611c3015e2'),
    ('examples run cones-z --radius 3', 0, '95ad9e1dcbdb932322aebbd4ec04fc8dde138ca1e2a6296992894e9e701fe35c'),
    ('examples run cones-z --radius 3 --json', 0, '490ff3406b3292116a2d74f87be0b4e44bbba7e9a61e781bb204418e8bbafdc0'),
    ('examples run cones-z2-lex --radius 3', 0, 'ec326dc54abd5d92f930e0f461834f8371b837e5336c1d211e440e35ee4b896c'),
    ('examples run cones-z2-lex --radius 3 --json', 0, '49945533ec455337387b99fc7e339bff10bcdfe13302e7e5214247a47ea3ed7f'),
    ('examples run cones-free --radius 3', 0, '43f703e902b635eee144ef45e5ba20a0c1cc4e3ad7db00f1176b9c55108bd83d'),
    ('examples run cones-free --radius 3 --json', 0, 'c6168e718975eff25217e4ca0d1108376a0c5850ae28a45e7406606c842d98eb'),
    ('examples run cones-dihedral --radius 3', 0, '26d9b361251a3b8a6a1f0e3764afcf23c37c50d248fb99768d1a81b9f761a4a1'),
    ('examples run cones-dihedral --radius 3 --json', 0, '54092930967d8e04c9c6e1fbc5d392ac15cc6dabb39f68ed48f0e388a7bece77'),
    ('examples run detect-broken-cone --radius 3', 0, '7ccd9ccaf874b91493e57d42fbb93ec0c37ffd640d5d4dc54669de5e78cb57c1'),
    ('examples run detect-broken-cone --radius 3 --json', 0, '43ecb7d346484338a7f87fa6ea6c636bbda82559989e3200aed575e6abfa880a'),
    ('examples run gplus-z --radius 3', 0, 'ea5beb3d45e9db1adb7c8fc5abc9856b3667942908ce71c83e8057ae368fccd4'),
    ('examples run gplus-z --radius 3 --json', 0, '4c692f30450be8dc9a31e93c93d50c0ffe70b58ebcc2f33cb266664bf86d36e9'),
    ('examples run gplus-dihedral --radius 3', 0, '9adb47371a24bc7a2259cd7dd74b1b7d60cc9fc69dfb2d8c8a21564b81b3a266'),
    ('examples run gplus-dihedral --radius 3 --json', 0, '2d9f910a0bdef0d7876934c8e23eec3c6f620430f03157a3ddea5438fb0b0d91'),
    ('examples run build-z --radius 3', 0, '0d41d7874e6e4f5e7f9e53c49ac92ba9f62ba05e0ecd14613b5d37c708c895d9'),
    ('examples run build-z --radius 3 --json', 0, 'cbc37acc6b2f0e7e7da2d8cddc49aef964bad0a045d836fd3d3f0256f61ac82f'),
    ('examples run build-dihedral --radius 3', 0, 'aec13deb4bdcb73295bdf7d0b7c7d0da666b33786ac57856055ef55baf9f4def'),
    ('examples run build-dihedral --radius 3 --json', 0, 'afca47e2d6b60dfd4acc9c5d8440438dbdb200c73211a77f7f0f5b1db9c71da8'),
    ('examples run blowup-line --radius 3', 0, '7d192e6940a10344506e6de324aed96e13a5c3664afc3ddea56b8501413095ae'),
    ('examples run blowup-line --radius 3 --json', 0, '627165a6d317dce277d4b76da54f96b91795cebbde202f7e7da8ec0834d4f5ee'),
    ('examples run roundtrip-z --radius 3', 0, '4b4f94f769c56d9b19090f728b9d657991cfd89f7e5547dfa1ed77cb0446b1b8'),
    ('examples run roundtrip-z --radius 3 --json', 0, 'f631d481d7d1e6cf92414be08561a74eefe8fde0b3b30836d8f32f6952e1f149'),
    ('examples run roundtrip-dihedral --radius 3', 0, '1c493bb926fcd82ef6776b9d34e2a62793908c07341e830410cf6b2fa1944eac'),
    ('examples run roundtrip-dihedral --radius 3 --json', 0, 'c0e98a48d616f17806d0a63db0f92a450c08d73796510ee0b225b36252852eaf'),
    ('examples run quotient-z2-lex --radius 3', 0, '37ddda699a399b13336b6f199d7f8403ec50400f1a80b7fdac0144f0dbbfc144'),
    ('examples run quotient-z2-lex --radius 3 --json', 0, 'fd8d1d759fd8ff541f37d00b4d7b30496b7adc78f3fa4dfb695134d3b94c047a'),
    ('examples run detect-nonconvex-quotient --radius 3', 0, '9a36fb83830681f1838785aa1317989d6155a3e84af62b0c5ff518d4588b9a55'),
    ('examples run detect-nonconvex-quotient --radius 3 --json', 0, '8663573863fc37ce6b936d53ef1616d6c77e3f60e515297464ba0ba85fddef1a'),
    ('examples run orbit-dihedral --radius 3', 0, '054bf3d1ae7b477913ad23c552cdfca00aa13da1f053379e5e2cac7e7138d83e'),
    ('examples run orbit-dihedral --radius 3 --json', 0, 'e7523a440771cb5c93a9a5552cdc367e4862ff443eff06d004660ec0ef024de8'),
    ('examples run z', 0, 'fad1cdb4d8f7ca210843954161d0bc02df721510f3953aa1ec80e98933b25a71'),
    ('examples run dihedral --json', 0, 'd1ffb898f69f99bc7f992d914cb033d654f7ff43675ac9dda6645e611c3015e2'),
    ('examples run dihedral --radius 8', 0, '9c9ec93d1a19285bbb2db7929aeb5af0c5ee498c6f0935613351ca6ab07a35e9'),
    ('check-cones nonesuch', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('quotient z-standard --subgroup odd', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('blowup baobab', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('orbit-order nowhere', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('examples run', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('examples run zeppelin', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check-poset @cone', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
]


def run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def resolve(argv: str, files: dict) -> list:
    return [files[tok[1:]] if tok.startswith("@") else tok for tok in argv.split()]


def write_fixtures(directory: Path) -> dict:
    files = {}
    for name, doc in FIXTURES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    return files


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    return write_fixtures(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("argv, status, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_cli_output_is_unchanged(argv, status, digest, fixture_files):
    assert run_cli(resolve(argv, fixture_files)) == (status, digest)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = write_fixtures(Path(tmp))
        for argv, _, _ in GOLDEN:
            code, digest = run_cli(resolve(argv, files))
            print(f"    ({argv!r}, {code}, {digest!r}),")
