"""Golden bytes: the trace and both log files of every fixture cell, and the
transformed net and ledger of every pattern.

Criterion c5 compares two runs of the same code, so a change that alters the
output the same way on both runs passes it.  These digests pin the bytes
themselves at the fixtures' pinned seeds.  `model.json` and the manifest are
not hashed here, but they are not free either: every trace header carries
the `ml` digest, so any change to `model.json`'s annotations also changes
the pinned trace bytes.  The pattern digests pin what each catalog entry
builds, so a refactor of the catalog can be checked for changing nothing.
"""
import hashlib
import os

import pytest

from logforge.serialize import digest_of, net_to_dict
from logforge.transform import apply_sequence

import mini_nets

FILES = ("trace", "log_jsonl", "log_csv")

# cell id -> sha256 of (trace.gt.jsonl, log.jsonl, log.csv)
GOLDEN = {
    "package_delivery": {
        "b0-r0-c0": ("938bd3b1e4cbdfe59b41bc1f5dca38455c42e12e37a873076c121002d3b4247c",
                     "1958d92330e7af7aac46922a287d739354192a5cca09af16962cb1fbaaeecf47",
                     "fdc00cf0c8ef183b0bdb17430a24879a63ec0c015589fccfecb9455aeff37039"),
        "b1-r1-c0": ("5b1ed8da5704b0a8410d3b1ada42ca3202d918e6fc2b1a1176f54e2dda073c5c",
                     "0effb64e3408de5b926912420658387128152e26f3f78acf75549d58dfbb5078",
                     "0e41c46a3a04bdd033201d536bc10ccca520819a7a4dca0785f4a5e443052f2d"),
        "b2-r2-c0": ("5c3242f209eff68c7603c8200d0c43ef4b80a5901e611cfb82da1623c2a90bb7",
                     "a11d27282941a632fef8af94a7d02638018d1f3d0591cf470332842934555b7c",
                     "42c4ecb156f45cf2b518ceefb92f10bbe1b85a4a3cda17e475ba38b8a23be386"),
        "b3-r3-c0": ("aea569a56e85173c8a6361a7f105c6d4dfd17f536fa28a042994fe3427c04e16",
                     "5c21f518eea756f6886bfa27311828d559074e1323c1c4fdc37e59bfd937c682",
                     "5eb57b63c3c322a3e8b2bd35756aee31ea613ac3849b5675663200f164d14378"),
        "b4-r4-c0": ("4395c5d36fd89f2d0d4911f5f3f1f5220746502f7f9252ba75802c6bf3a9d3c5",
                     "a4e63c0865d2c8eb85d2113f66237281a5c1a5c134639de10dc94c33299e0c46",
                     "25fb5854252765bbee869da6324c0cc4d78399581537fc9d8683d3d0a3fd5af4"),
        "b5-r5-c0": ("96db1d41626981f4d2caea605be93231a7ab7a0cad87489cac2a5b08c70335cf",
                     "3a146531c5c16d5effff883193b33fcbcf2789d66f46f416c19d738d2cc43603",
                     "901d31e7d8de86bcbb506ea481a1642b15f66670f0d924a8dc60ada80e82122e"),
        "b6-r6-c0": ("5f3382580adeb9d49a4afcfa4dc6ad6ad58f35c689a7f652f763313cb70369f5",
                     "c1cffd1f88c58ddcbd9b7b1d9c65f9c823ed410560b3df4375e5b4ad7b63ab84",
                     "298be85822e32940dc75a495862fa21ca1bf31da7564bf017da2805f28b32c57"),
        "b7-r7-c0": ("0206fef666f8932aac12727b945e8d5921a0fa5b6d4e9117e2316c10c00161aa",
                     "cab12d4bb89be3239d423f515dd0d2650b38a2dd8a1f910b85e86b88a69af13f",
                     "2392b9046c3f70bb64801186bdf72587fd4373d159537ea6926add5726e02ec4"),
        "b8-r8-c0": ("ea9958bf8074a88b08d4f411d476d73c7023405ecd9e5968720a0dd32394924d",
                     "6e82c7863cea7c0abc490fefe8e4160e24e85d202733d64ec07693ca295f956d",
                     "77ad26a5f54dac4c276034c6c49de229eb7ef7109076d8c1302c65475608c0cd"),
        "b9-r9-c0": ("9a3aeae5aa83f34a708b1740b11ee0c629d46c2821c8e5a30545b38c2d405364",
                     "4e0489d2ac2f8c2a98f70dc49fed8203b8135998cd8f46320cdae819f9fa411a",
                     "de4aec22d71ba0c24597de864a7a4b64936dd868f368ca54000f72d34b4685b2"),
        "b10-r10-c0": ("1b277cd3a9a125a4e8fa391d29a8b542a9b99d2bb8d187a9ab8e846bf424130c",
                       "bb5a6eda80aad4eefe7196b8178d071756bf0250ce2350339c0e58a34fd4fc3f",
                       "8fe0647d8ccc96d155e4eee8bc3b3bde212075af6572ecd0bbb12d0c1d4e9361"),
        "b11-r11-c0": ("3788ee9b26a45ba012c9e2336ffed3bce5e9e43f65b1f7879dc3af9066d044a3",
                       "facae4c9845f83d2db7fd73301bc665dadc9ca5976531f5f8add67c00e7ef825",
                       "3b5a83ce53701a0587c52a942618db2dd6899107608fab244911e3c8292f65b3"),
    },
    "energy_contract": {
        "b0-r0-c0": ("ccc83d370fbb1fe00d5254ad603aab4f5e50ebad7e562becf1608e9afe89d420",
                     "c0f8e516e8d09e087d2c081a2d09badd00e535c49a4b5b47997ce6b3d92440fa",
                     "373b8e89dc07f71d46170c7cb9f88c5267c4d919d924fb8a0f20da74d725778e"),
    },
    "assembly": {
        "b0-r0-c0": ("b60fc7a3b44e02621f64ae8cfce47cb9e54cea15e1f51ef705b91498cc726953",
                     "d5280237820d8b79613994a4a33f51388cda2139b8d0db964dd44122bfe18592",
                     "966e18e611e66f7cb69dc04ed8138e1e7906f5134da8b311e644fe7865421b0b"),
    },
}


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_outputs_are_byte_identical_to_golden(fixture_datasets, name):
    out, manifest = fixture_datasets[name]
    got = {entry["cell_id"]: tuple(sha256_of(os.path.join(out, entry["paths"][k]))
                                   for k in FILES)
           for entry in manifest.cells}
    assert got == GOLDEN[name]


# additivity case -> sha256 of the canonical JSON of (net_to_dict, ledger.to_dict())
PATTERN_GOLDEN = {
    'RI_mi^e': ('22da53b16f1e061fefc3ee5a81d81e62fd9495dd209fb7a2b66c2d8325d3a6cb',
                'bf7271612bcc2b72cb8daa529161f2e1712ea83312d7d0ce2115f9a24f2194cf'),
    'RI_in^e': ('b06bc3d8e612ec735f790a703ff59d0d6beec26848d0f0835611c7da14bc2282',
                'c7abd9372cf3ce278f9ab729217796f340e40408cb8a47b260c016d957aae841'),
    'RI_in^a': ('547d8a617e3d68e2e7de4bf1d3ff78d78884b3ce99555bcf0a5d53ff145d6131',
                '7cad7528100f6c330f92532c910ae9049a25a724aee38ff8f53dc809cab9c5b9'),
    'RI_mi^o': ('08e71442896c245529203bfffc1cd8d931398e99794df75f0985c928603803e8',
                'e3f99123b4b05033e6885a77ce41266359c1a406015e0e23eac7fee452e67b7a'),
    'RI_in^o': ('92051ebdfd99d42c2f7da4f3290cecfe7f7801188c2d28ac299f3fe400a25e8d',
                '1df15e395cc86c7083c98b9f92e960cec467391215967d92201a341021a237fd'),
    'RI_in^p': ('c93306baeeea3cf0618e37f7870825b85ca8a6e657007817149ee108cd361b7b',
                'a64e95bfcb0844ff5f373a470b9ee5d71b3d90a7c502ff0f7abfdafc191c92e8'),
    'RI_mi^p': ('7696464680fd5c18e424f9c2c8826f1fea161bebde5d8de27b64c30844cac482',
                '3aaa6282a5ce87197186aa514317762c38ac59804b1126499e05fd9936cb3122'),
    'BI_1':    ('e33328af1ab6e9a49150b3c8583d362583a9dc1d1d108eb965f0f6757a293cff',
                '6483999088ac33d50da5914edee8576e1b0ca5a743560b4fbc8be9b29c6dbf59'),
    'BI_2':    ('92e58b0bfcb39b5b5024ab83192a8759e67bdfcfcd4b8932f98f32839e06ff35',
                '28aaaf359b8c03c6d9cda739f6d83644454398d6e7ea48201aa4c175c5bf99bc'),
    'BI_3':    ('09743d35d63c209b78ee0b93a406a82c8b00d960cd962326065eee23189fb619',
                'b9eb71af6eafdf52776029353fa63abb7e181694d72ee57ecd565a7551608686'),
    'BI_5':    ('f6a126a558d2624bccee8dc6e9a982ca2dc11c567fdb440c1530927d026e599d',
                'a90d92d2115d579813ebc462b9c5057a67907be44f8b364fe5c57b59670fac98'),
    'BI_6':    ('1f419a25e1488f3a61212865eef04eb38c7a8faa87c991a68f3ddfd52350dc49',
                '688499668258ea695ffedb6596b1a28b931be0fa0f619cd6092a4d1c2521f941'),
    'BI_7':    ('4fc4a99f076eb91153d0687fc959152441b87c645dde41abfc3317b03536c3f3',
                '5ee4cd01e32b74899a268888300a9ccd4be13d1f9a125df5f6b4d7b675fc8253'),
    'BI_9':    ('c8d55b3b54735cf5f6cdbe079340fd580e48fa57f71eae4ee86d28c7e926416d',
                '7b1a0f994565ef5b4f8e702814b0c3a8b721452be8772c3323c0a97144904db9'),
    'BI_10':   ('d89162d8b5398cdbb8a8735805efd8f86b5467d51715aa62ced7a7d4eb56ec43',
                '44dbf5541ecbe35667d4a0e3227fa7cdcb96b308481e6996cac7359bb259aef7'),
    'BI_11':   ('084a58e022b2258cf6a7836567ef9232dd706b78e34464290d8370b6a58ac7cc',
                '02148b62808d8397cb1bfff2b51668fc0fb9b2db93f2ff909d18e24892b8423e'),
}


@pytest.mark.parametrize("case", mini_nets.additivity_cases(), ids=lambda c: c[0])
def test_pattern_net_and_ledger_are_identical_to_golden(case):
    name, net, app = case
    out, ledger = apply_sequence(net, [app])
    assert (digest_of(net_to_dict(out)), digest_of(ledger.to_dict())) == PATTERN_GOLDEN[name]
