"""Pinned super-step traces on the stock dataset analogs.

Trace artifacts are addressed by ``stages.trace_key`` alone, which names
the scale, app, dataset, technique and root but not the engine or the
code that generated the streams.  A generator that moved a single access
would therefore alias every stored trace (CI's cached ``.repro_cache``
included) without any ``SCHEMA_VERSION`` bump noticing.  These digests pin
the trace itself, under both the numpy reference and the compiled
generator: any change to either must leave them untouched.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.registry import APP_ORDER
from repro.framework import fasttrace
from repro.graph.generators import NO_SKEW_DATASETS, SKEWED_DATASETS, load_dataset
from repro.reorder import make_technique

SCALE = 0.25
TECHNIQUES = ("Original", "DBG", "Gorder")

#: sha256 over the ``(blocks, counts, writes, cores)`` bytes of
#: ``app.trace(load_dataset(name, 0.25).relabel(mapping),
#: app.plan(graph).remap(mapping))``, SSSP on the weighted analog, every
#: technique reordering by the app's ``reorder_degree_kind``.
PINNED = {
    ("kr", "Original", "BC"): "955ade8dd0985bd60fdffa1c56ca6385f68912b3c6b3d9b5b019dcec52bcbf14",
    ("kr", "Original", "SSSP"): "94edd2443ca49fdc92ad4b97b195589981ea666b0b2fada534c459cb0b97bf9a",
    ("kr", "Original", "PR"): "13836275c7d1f9615d179e0a4f284b0d9d1145a95135d3ea2c0d819020972282",
    ("kr", "Original", "PRD"): "d1d6976614d8525e18c041f18a660fc3d64a9147f6e658f9cc16eace24b6f7a9",
    ("kr", "Original", "Radii"): "1ffd26bf5fec4d7f5d103d22f05d0314b857c6030198ff8ad973a3ecbe9fe572",
    ("kr", "DBG", "BC"): "9165cf10ffd93aec30795cbe437d3af4f9af9573648cdb6a5268f3cd4d0ec6d5",
    ("kr", "DBG", "SSSP"): "9261bd15f0a8f59ee975a65938e1b423a81e16313e2e91c52d0f3cb3f67de5a5",
    ("kr", "DBG", "PR"): "b77517568e6ae46da9f23367b04efe0843493c147aebee8e687cb1fca747b98b",
    ("kr", "DBG", "PRD"): "3c78d1a7e5dd2fe5184e722cdbf6a380559828e6d810e458161d2819ddd6049e",
    ("kr", "DBG", "Radii"): "f20ed21802c4282e1f0175acdabaee6dbf3fcc3542738fa11dbcd77404174e91",
    ("kr", "Gorder", "BC"): "a08430d57ada97d4533b764f2821eec94775d63b7886c560e5c7041588ee1110",
    ("kr", "Gorder", "SSSP"): "ebffd8fe09b569c2eb6216edb6bb19a63439314cc0665c678810996fb3b6bdef",
    ("kr", "Gorder", "PR"): "ae79c6e9c391743a4bf044092f71ab3a00b1186c8769a00df3fb1aa135ed43d6",
    ("kr", "Gorder", "PRD"): "57ee24c02da258bcced3e21ba62c0babcbdf1074427fd71fa83e8e6b7919b551",
    ("kr", "Gorder", "Radii"): "d0b9bf244fdddc14dc1498a4c5c5ab9e67bf6839cb63b7891ed207bc94bbe686",
    ("pl", "Original", "BC"): "1a6c84626d77ae77b92b648bf8e1765fe96a8f731d03034d54858f623485066a",
    ("pl", "Original", "SSSP"): "675c23909ab2b18d2d1c9db121c08b5e4b2b7abb02628c4e1f5feeb4fb8b5e93",
    ("pl", "Original", "PR"): "da086cd5d994e34b53ec05fad7fa99e497782ad753b7032366a3a24c04399995",
    ("pl", "Original", "PRD"): "791e865134876911a79c76987388b8ae7828913237ace547c4f1438487f7930b",
    ("pl", "Original", "Radii"): "901bd3a2c15c9edbb9c8f7515c5d126aa546d32c05ba8050fb6e16332bad1421",
    ("pl", "DBG", "BC"): "787b2517c8a45930b88941ef9229bec9a2f3552bf25228b603b7ac24bce70ad4",
    ("pl", "DBG", "SSSP"): "a31c41bf91384236a6427987f2b02eafb1ed7b537fca2939dc824fd4446226d6",
    ("pl", "DBG", "PR"): "2711fc85c97e9849989e32decd09f2b9cf0f36cc8b285b4d148b5806d72ea479",
    ("pl", "DBG", "PRD"): "edcea2e586ecd1b5b45f0e14a6c167a44db6d3fb506d3e03ea243cca31324362",
    ("pl", "DBG", "Radii"): "0776ff63b445fb40beb9667473865363d471c82569e86623d4753f20204f6d4a",
    ("pl", "Gorder", "BC"): "2a195ebf1e86a810115eae8eb1f8d2db5ad263f96b548997a7d1f34d95bb0869",
    ("pl", "Gorder", "SSSP"): "2e8dbba8143600ae92b618fc7c706b68241f5c93d0ed987f49e6906114c504d5",
    ("pl", "Gorder", "PR"): "da585d7fee5e5d755de9c39e27f38f50a1877f3ea6a7ae31381273050fca3d1c",
    ("pl", "Gorder", "PRD"): "bba220bdd6c48a8d45b8bb9b06f74767f86ea664f7f654dee7a6cc6527d52882",
    ("pl", "Gorder", "Radii"): "b8c57a672c2b4228cb1dc6b5bccc7a551ea9de71b822410dc2c449fb05954236",
    ("tw", "Original", "BC"): "2023569c4082b57da67856243fc13630b46ad2a1f734eeed28d5f3564c601d7d",
    ("tw", "Original", "SSSP"): "b5de12e57d4e725766261e97d6a7f0d51400a9d019e546160b87da3a99d6e734",
    ("tw", "Original", "PR"): "efacdd4a9cc8811a09e0e1958dba0a13d6bee846baebe1460e0e65dc022702fc",
    ("tw", "Original", "PRD"): "2b67670a8eae3f1ebd3f35789bc11279ec812f58408dae7685536166a66afd0e",
    ("tw", "Original", "Radii"): "1184d29ed4ade3d223a710caa19bb1aa68ce30448091695acd841192aa78a593",
    ("tw", "DBG", "BC"): "e144d189f6b0206a8f7136684dd129a3dcb2cadd2f988b7d5f1616f55d70f2b3",
    ("tw", "DBG", "SSSP"): "c078374fca8e099bb0b1223fb943731b3da0cf0194aa0c4e4f2f3b6b54e8e074",
    ("tw", "DBG", "PR"): "f8ef15525b9d19d0d5ffb5116ef4327125fd1875cd8f94f13fc83ccc51faf562",
    ("tw", "DBG", "PRD"): "06b8e181a5972b0f0bc3f6318ed405f12cb3da7e4c5337094d1fd780031ed6fa",
    ("tw", "DBG", "Radii"): "d26498bd703d1460b960c07cc1f9248489f69ce903df2762624f05a86ff4bf69",
    ("tw", "Gorder", "BC"): "f02962121a711aa0bd477b11a6a37e3f34c1eb7e3f383d2584c07cbf67cf65d5",
    ("tw", "Gorder", "SSSP"): "b6d401d3f6d657f0deb52b80a3f7cb6528e5d2b18c62ed4a51f26de004d87f03",
    ("tw", "Gorder", "PR"): "9ce79b3ea89e84ec648629f8965975c8bf38a7c3bc50b5630894f8c0c834b8cc",
    ("tw", "Gorder", "PRD"): "5948d5277f3a850e76cca5552b5700f369fc75a52a2ae335b16cac132a303c77",
    ("tw", "Gorder", "Radii"): "ff21b60a41d6bcf4a9c9290956870d63f59824b2e307eab0ac4501e1fa8121e7",
    ("sd", "Original", "BC"): "77d16da5b5d232f81e9d5a63ca3119124ea3807b11a732b1422d2290bc36fcff",
    ("sd", "Original", "SSSP"): "6c7d0eada482322c50ae16ed82a4f8745ad133afde938b3fef65c6700bfacbe2",
    ("sd", "Original", "PR"): "ef6f5aeceb37d6fd19ace518922d6e4be1aaa0d905a2541a00322202f4fe56af",
    ("sd", "Original", "PRD"): "c491fee42075aab2f93f61b9db0c4afd61e02464ed3beca9b3d43e653f8b75f5",
    ("sd", "Original", "Radii"): "bf4b7781d3d4d6aaee0d473c6ef2570adb1de3b3d635dab22132626e002a8844",
    ("sd", "DBG", "BC"): "89dcef207153d544880f59c352be87ad7d7055e012537fbce2c5c8c91b4e4032",
    ("sd", "DBG", "SSSP"): "b1392e4fdc20b07b7d777f20230434bea61c6ed2d5773dd2fe07ca66d4697b13",
    ("sd", "DBG", "PR"): "28020dc3dcd0abaeed5f4a690c8b724b897cece671489f032fe5b5f024facd19",
    ("sd", "DBG", "PRD"): "6e15b5036193dfaa9c28ccb38f2f1e2012bfd339404a49710928752aa273e078",
    ("sd", "DBG", "Radii"): "617c2a6a9cbd4ea893920033c0768a63167666cd2f8c2d8e695e35a1d9662de8",
    ("sd", "Gorder", "BC"): "b8f726a9c5e4e89cf30c52d6104b487198651392fc4eb1077f03f6e32b89d207",
    ("sd", "Gorder", "SSSP"): "59c33ac228d70735b7c44c01fd15ff5d38c3125ece21dfe9cf378f79389e7091",
    ("sd", "Gorder", "PR"): "55d0be49ee3834e6c573bb8499e05b239f5a26a495a7784bac3c3d46908f007e",
    ("sd", "Gorder", "PRD"): "7c77afdcaae0d91999c6b0c45a5d73f85e0ebb7284713ff22fbb35bc1d647def",
    ("sd", "Gorder", "Radii"): "fa9160305fb552dc1380eb3a5d401906e94505f8848bdbe2cd43e4008059b65a",
    ("lj", "Original", "BC"): "78c72804a4a01aa84a50eb27bb224a932879deefc26cbdca5f8a399a9ab35d07",
    ("lj", "Original", "SSSP"): "5578d9701b6dae0e3285047305c76a220ca3ce75d3cb21960d49e29b02952310",
    ("lj", "Original", "PR"): "ce1ddbd9922abe4475e87ad555426751e4f3e2a8494e7d3dc3e849844857b751",
    ("lj", "Original", "PRD"): "a9f2ad4cf4439ae92beddb22bd87ea7b7d1d21f8566b99ecf8657a06e343bc15",
    ("lj", "Original", "Radii"): "0ef6e0399a4aeedfbd0c7fc7c375753e0f7e96541a0540f5e0f47031f04e1be8",
    ("lj", "DBG", "BC"): "0b780975543e839ca0077089e8325872c24e7e2b674c00536aecae5c9fa6bc99",
    ("lj", "DBG", "SSSP"): "9db241ee2f65b20b7c8517f8754d1ecaf118363252341bfdae20c9be16bd7620",
    ("lj", "DBG", "PR"): "a0d873434811221e076ea5cbcf1068007ef99eddd55012eea9d604b45a8c7a6e",
    ("lj", "DBG", "PRD"): "4078fac8a280c291310a5f9280772b043ebe0b18186c7e5e380450474540cf2e",
    ("lj", "DBG", "Radii"): "7aaf1e7f6bfbd3e0069c714fee317b8a964caf12366e14d44c8ede1b9b645613",
    ("lj", "Gorder", "BC"): "7d874f27912417580de626f85ea7c3606c9c08cc6c9dfe59a696b5541a453adf",
    ("lj", "Gorder", "SSSP"): "14f878d4e5a42d4fd03ff2309988b20c133f7c812f4c2d93cce2dfe0f1a647c9",
    ("lj", "Gorder", "PR"): "2dc1cea83785a674efeb83563c9e113bc12a1f05a0aad367bf320a3fc7f9e83a",
    ("lj", "Gorder", "PRD"): "fec21766d6f1dd80accf9db5da618162db563cd95e8a69aef466128dd6f5218b",
    ("lj", "Gorder", "Radii"): "9e12fdb8d09e2592cb05b326fda1b94a9da43528a1fe9a1e1911b3f2823402a5",
    ("wl", "Original", "BC"): "27b059c02d9f416d9bb58892717ec19e2fd57a953f8c8667b17e4b3722a969c5",
    ("wl", "Original", "SSSP"): "013a37e2602bac207a6857128769e6a2205496c6cd7e79bedd040f6fca38883e",
    ("wl", "Original", "PR"): "f460728414f03362802f4aa8a3a430c6d809651cf396f4f0a4f460b51588dfcd",
    ("wl", "Original", "PRD"): "73947f2c0e3b45c887641b6eb5a6cfe8133741cd2a3560d655ec2784b4cc4af7",
    ("wl", "Original", "Radii"): "3f53dcbe49d8f7edb2ec7879ab0aff31b385d0d3475d7e35fa6dde60781facbe",
    ("wl", "DBG", "BC"): "f4b0c51cd3a79c4881ca3615ae35e5d08bed8d55e0efd89ce2a8b5b82f2eaf53",
    ("wl", "DBG", "SSSP"): "63cc52c39c73176a4dccf48729a364cd3fc820d1e749747d0dc2b7e5ed7ccb2a",
    ("wl", "DBG", "PR"): "1c22be39e253f3a29a3f7a8d8389f87acc00210a69fd076d1741de8a060a995a",
    ("wl", "DBG", "PRD"): "d850baa8962e7119c2180b9b91de2928b62f6680b7d6a0fbc11aa43234da4c17",
    ("wl", "DBG", "Radii"): "4f35be9f6a215e405fbae0bc526640778471532fbd333d023cac8710305873ab",
    ("wl", "Gorder", "BC"): "3085a5ac572caf2dd312cbd3234ce26392d03b7fd5f328c7ee9ac1668ed1a6d8",
    ("wl", "Gorder", "SSSP"): "db731a835a386351b92307f08a3d9d26ae43674b956c33f72439921cab702e3b",
    ("wl", "Gorder", "PR"): "08b165177ce3fb055335939974588aafd16e42b3078b1eb0a4e2a3865193a4f7",
    ("wl", "Gorder", "PRD"): "67e8e908081a07295e2002500e5d6cc7500e6a1628640aa1c63112437674412a",
    ("wl", "Gorder", "Radii"): "c7e56b001841e48ea15d796bdd9f8dd545fd0e88a8df4b0eb85acaa5a7275c5d",
    ("fr", "Original", "BC"): "ec46ea3f1ec7aed50834037a7b07e26856a120c8151eabfad26b6d1af601ae11",
    ("fr", "Original", "SSSP"): "d4f87c419fda34a6b72e310d1ded8d4905f9e3618f7a3db506024eb9c559507f",
    ("fr", "Original", "PR"): "792e0e47aa500a8b14cfbe71fad37544432e95ca6f423665822e7b92e5fe6684",
    ("fr", "Original", "PRD"): "7e67e4ebcba98611c75ed0935642fd2ee99bb99df5c0ba8fb3ccf187212bd3fb",
    ("fr", "Original", "Radii"): "57c631745cd53dfddea8a0da19f076dd3d0150a61995ea674e658d2c516a12c5",
    ("fr", "DBG", "BC"): "a1ae8ae123c2528e8ee38fd3ca5f83095f5fdd4509f3049b546fabc3ea71a9b2",
    ("fr", "DBG", "SSSP"): "02de74269ec5fd9f315e65b4e346b9551362578f29fa759cdb91e46cf563eb95",
    ("fr", "DBG", "PR"): "65758a799394aa11880f396d8e2ba0a205675c75f1900b6e365039d1ef0bdd80",
    ("fr", "DBG", "PRD"): "a1955d426e193f1f38bda4c368ce2846fb78af3357a1473d08140a71c2719650",
    ("fr", "DBG", "Radii"): "52ad20d96b74ea77bf18dccafb25d24d90135745355f23d8a0dd3125bc850081",
    ("fr", "Gorder", "BC"): "d69f04cc7dc48de734a01f123981e884ee2751587869c9f6ba2156d930a553e8",
    ("fr", "Gorder", "SSSP"): "247d3a906c4023ed932a7845b6f04b309dc103e258e5cd1c219cf5f3d7ef913a",
    ("fr", "Gorder", "PR"): "3725b5dafc8a7960d3fee692996ba056cca5a9e13fa82e86d24af31e16f8138d",
    ("fr", "Gorder", "PRD"): "44f7efe22f8d483efb015253a145bc26af9d7864849fc9819a156a147c04bd42",
    ("fr", "Gorder", "Radii"): "1c7ddabe2c085f6443f9811ad28e4851523e79f4f0f516aae9ec325046ff4ab1",
    ("mp", "Original", "BC"): "27348aba081e1fd795b140adab596f4f21b9a1bf2311c9b8f0e76f1aa69d8c35",
    ("mp", "Original", "SSSP"): "d4608a1bd5c6c0e1cd812c35607dd835e36107c4e3751ff6cd1baaab03c96a1f",
    ("mp", "Original", "PR"): "c7a8570641681607e63310a07f586c9fa66f38b05db798b0482a0aa0868412aa",
    ("mp", "Original", "PRD"): "80d717d1a335a1b63c9f7bbabbc2dd5dfe8d6c6ac7235ff6259f3670cd6021b2",
    ("mp", "Original", "Radii"): "6c74aebaca563491b3f48a25b1129d89c039676be06d3645a8bc7fe2e4042bae",
    ("mp", "DBG", "BC"): "5900b5c78604235598cb74338a1e3e09991871add17b56a19451b070fafe90de",
    ("mp", "DBG", "SSSP"): "3089d8665b4d4332e90210aae19a6024338264c668e7e3ca9096917e895cd126",
    ("mp", "DBG", "PR"): "8f534d314c84d43a0e9768fe7bfc4dd3001f436878950ddff4ee2aadd1de89fb",
    ("mp", "DBG", "PRD"): "ee431adcff5359635448dbae57b3b38d6476922cc17ea73f9afac3c7eb5d4b3a",
    ("mp", "DBG", "Radii"): "4296311440fe11325ae06c37c8852c6a29d707e456d41e35a1c51a6d6225f8bf",
    ("mp", "Gorder", "BC"): "a62dc976a1fa57e318df40eecf9c2efdb5b6965d337f6d86163d9831e78a21d6",
    ("mp", "Gorder", "SSSP"): "99bf128e11f1a63cd23482be249a3ddc5b69e1c0cdc2383260fb5aaae43e73df",
    ("mp", "Gorder", "PR"): "2d2b97b7d195f981da1e4752e3e8d1937966baf2e96d22efe95044c1b5470f93",
    ("mp", "Gorder", "PRD"): "b2b52ca545f62002b766ad7e8ce86d64f8ae01c7709a7a441ea5d1f796ff3a74",
    ("mp", "Gorder", "Radii"): "30c0281bb53a15dc629b000d11d5731b5ec1f58594334a6ef7559f948562ff7e",
    ("uni", "Original", "BC"): "6bfb43f9f3cd86dee21003722a1547b4bd115f2b2eacb6c65f67877ece627209",
    ("uni", "Original", "SSSP"): "4a5173445ed17fea4b6c876f6f6b2ee4096d49d942581645c735ea52ae3ad246",
    ("uni", "Original", "PR"): "74932c75c478b392eab7f08651115c8672ef45a30e61afdb2fa3c80e82fab48b",
    ("uni", "Original", "PRD"): "63c911ba3e02a037d76b4309689d1d16b43c377c8adc125c9db951c98045a5cd",
    ("uni", "Original", "Radii"): "5f4bc97e65ecfc2ea5609de1175519d698dfb813a3a0882fd62cb72bae7294d5",
    ("uni", "DBG", "BC"): "0244d24356175f665861f6e9c2cbf570ce647dc089df7221b87d4418ecf8cfd8",
    ("uni", "DBG", "SSSP"): "33f9e94eb0d45b4f1602cc0f4548414305f4337bb150772d25ae1f226823da1a",
    ("uni", "DBG", "PR"): "759aa7de87f5f7dab6f2416fa8f3f606d3e00b0246238f4139a6428fe5cdeba9",
    ("uni", "DBG", "PRD"): "f9128f81026ac481bfaa651d7fdd721b68cc4914c014541a9f8db0173cd7ad3a",
    ("uni", "DBG", "Radii"): "3ef50807865dd8db90b8ed4ef89f2a7ddd44f17b31e9b920a57b5c52913efe16",
    ("uni", "Gorder", "BC"): "53fac7e596327206e22adf56c8596361a8024dd0c6dee9ede1e7fb4162d47443",
    ("uni", "Gorder", "SSSP"): "f91e99e5ef45fd54d0d63f76f2c0a69ccc5bb09f5a4daec143f9da56b2c467c2",
    ("uni", "Gorder", "PR"): "bfd907667a838b5945ebf1ee94222d82015e260686e9157b58ecf32a7463abb9",
    ("uni", "Gorder", "PRD"): "7cfc928060bd41ca76286e77dcb92b21fa71e8a738fc2a39e79a32356f571578",
    ("uni", "Gorder", "Radii"): "5d594f85bffeb5fbe6daf32baf9c501e03dee1ddae79201a58288483a98d6d04",
    ("road", "Original", "BC"): "9999c9ca33cd9e94cd9ca6bd264833cfb99e51111c08772664262e5025834be1",
    ("road", "Original", "SSSP"): "5923bc91d65259dbb7819f097f2cebf763f4ba6a2139b117359ae9f9ae6ebfad",
    ("road", "Original", "PR"): "2e2323b8b2e6a27efbe597624df368b21682560959533aae58008cd0795df484",
    ("road", "Original", "PRD"): "f5a2c95c9de734abd252350f0190b23ef2a0de7a2005bc35d2be1b67646ffb1b",
    ("road", "Original", "Radii"): "c48e31af9e62fa723e4e7f411a9b6569679b53ead30b3ca4e38fc9ba251577b6",
    ("road", "DBG", "BC"): "f9b999895d68ac9a093c2d7145abe714d32b1da51b8c0fe56488e1602b157afb",
    ("road", "DBG", "SSSP"): "f566158fe7c6ff0ca53e60bf5ad65f845c15bb511eefcfcfc14917e5870500ae",
    ("road", "DBG", "PR"): "2a805fb7e70f8e6ea96680a4cf20844fbec341f3c1ae039f4457176a6702f0eb",
    ("road", "DBG", "PRD"): "6131756ec90d9a887cc400c4005ae83602b61b2e4610a660e3810107d5b951d9",
    ("road", "DBG", "Radii"): "ae6564cdd344dac92bef0d5bf35b1d6f70decd28ff06a2d8ca7ef96cfa3198b4",
    ("road", "Gorder", "BC"): "daf2bb15955ddf98d23c900e0982d0f2511c925e4af9550bf32a18c181d9b64e",
    ("road", "Gorder", "SSSP"): "7bec762cd82593257d1b049763ec3cd9e3027e3411642260afc2ce03f2cd3d24",
    ("road", "Gorder", "PR"): "7ee0b226b9e223340dbcba1bddc338e691d65d89c307ea3a2bb2a4eba3679c80",
    ("road", "Gorder", "PRD"): "bc868189eacd2974f8bb002cf0c38ac505eb3317a64b352dfc025bcefa1fb9dd",
    ("road", "Gorder", "Radii"): "4232b30bfdf04d136b298aaa8eb4fb832590e736510a9d02e67e840af1a43144",
}

#: Analogs whose Gorder mapping the Python placement loop computes in
#: tier-1 time (used when the compiled kernel is unavailable).
REFERENCE_GORDER = ("lj", "wl", "road")


@functools.lru_cache(maxsize=None)
def _graph(name: str, weighted: bool):
    return load_dataset(name, SCALE, weighted=weighted)


@functools.lru_cache(maxsize=None)
def _mapping(name: str, technique: str, degree_kind: str) -> np.ndarray:
    graph = _graph(name, False)
    if technique == "Original":
        return np.arange(graph.num_vertices)
    # The Gorder permutations are pinned by test_gorder_pinned; take the
    # placement kernel when it exists even under a reference campaign.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_ENGINE", "auto")
        return make_technique(technique, degree_kind).compute_mapping(graph)


def trace_digest(name: str, technique: str, app_name: str, engine: str) -> str:
    app = make_app(app_name)
    graph = _graph(name, app_name == "SSSP")
    mapping = _mapping(name, technique, app.reorder_degree_kind)
    plan = app.plan(graph).remap(mapping)
    trace = app.trace(graph.relabel(mapping), plan, engine=engine).trace
    digest = hashlib.sha256()
    for array, dtype in (
        (trace.blocks, np.int64),
        (trace.counts, np.int64),
        (trace.writes, np.bool_),
        (trace.cores, np.int64),
    ):
        assert array.dtype == dtype
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_every_cell_is_pinned():
    assert set(PINNED) == {
        (name, technique, app)
        for name in SKEWED_DATASETS + NO_SKEW_DATASETS
        for technique in TECHNIQUES
        for app in APP_ORDER
    }


@pytest.mark.skipif(
    not fasttrace.fast_available(), reason="no C compiler for the trace kernels"
)
@pytest.mark.parametrize("name", SKEWED_DATASETS + NO_SKEW_DATASETS)
def test_kernel_traces_are_pinned(name):
    for technique in TECHNIQUES:
        for app in APP_ORDER:
            assert trace_digest(name, technique, app, "fast") == PINNED[
                (name, technique, app)
            ], (technique, app)


@pytest.mark.parametrize("name", SKEWED_DATASETS + NO_SKEW_DATASETS)
def test_reference_traces_are_pinned(name):
    techniques = TECHNIQUES
    if not fasttrace.fast_available() and name not in REFERENCE_GORDER:
        techniques = ("Original", "DBG")
    for technique in techniques:
        for app in APP_ORDER:
            assert trace_digest(name, technique, app, "reference") == PINNED[
                (name, technique, app)
            ], (technique, app)
