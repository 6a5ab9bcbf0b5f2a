"""Pinned super-step traces on the stock dataset analogs.

Stored cell results are addressed by ``stages.cell_key``, which names the
configuration, app, dataset, technique and policy but not the engine or
the code that generated the traces behind them.  A generator that moved
a single access would therefore change the counters of every cell while
the stored ones (CI's cached ``.repro_cache`` included) kept being
served, without any ``SCHEMA_VERSION`` bump noticing.  These digests pin
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

#: sha256 over the ``(blocks as int64, writes, cores as int64)`` bytes
#: plus the int64 access total of
#: ``app.trace(load_dataset(name, 0.25).relabel(mapping),
#: app.plan(graph).remap(mapping))``, SSSP on the weighted analog, every
#: technique reordering by the app's ``reorder_degree_kind``.
PINNED = {
    ("kr", "Original", "BC"): "f9d1c64498d45410f8f2cf4083d78d4494e46debaa2b1289b7f330eecc2e0077",
    ("kr", "Original", "SSSP"): "1d6886f7f399ed8f1fb96c0dd212b392489d20cdaa07838c95df80c717e3724a",
    ("kr", "Original", "PR"): "b395b46d1a91d20daac2b318819786f9c6882a6bbb1157be2329dd9f9ffa84db",
    ("kr", "Original", "PRD"): "016cb8a957e3c9506b8897e33344d85e474e4974f488b362cf97d96a9ad8aeba",
    ("kr", "Original", "Radii"): "40085dc9f3defdb734480ef535a6c77dfc1b4ce2e2bb4f160a851d2b21b27db7",
    ("kr", "DBG", "BC"): "96cdceaf9a35c8a215e13c97af75042a2501faf3555ddf87e8f88d08cbce478d",
    ("kr", "DBG", "SSSP"): "5178015bc1c00cc92f7dad1e6d1a397d55499bd901fe38bf15ba65ffb5083691",
    ("kr", "DBG", "PR"): "112d4a2b3c3d112faba17ee3e261b9abe585da38d34850da2d79b33499bcf37f",
    ("kr", "DBG", "PRD"): "b44ab03cf8267f4e5f57dbeed7040fd7a07b8d2ce9c86f71b334a7937e4d054e",
    ("kr", "DBG", "Radii"): "deaccdb824e562333e91c2aa008e1e696a2475c3b9b28cd623378991065bc106",
    ("kr", "Gorder", "BC"): "72429e3f829fc4b57e80eda79f7b58ab028b31057af0ec8875380fb23c041722",
    ("kr", "Gorder", "SSSP"): "9dd65fba7bf46b90ae909962a94b3651ccffe405477c246601203cf44cd44246",
    ("kr", "Gorder", "PR"): "b8f91cf5af668bf2567f81675097ac703af315767744c407ab73ab0d22c6388d",
    ("kr", "Gorder", "PRD"): "65d0c018d68a337898464d1bbb010f1527f9e23578ee1d713c184a093303fcb7",
    ("kr", "Gorder", "Radii"): "dd74ffef2fb238e105b9ccbded9bf5d0d80d1dbc9d9b185089aa0ff60505c1b5",
    ("pl", "Original", "BC"): "8726f0d0d6547835044d6dff720bb586a0b645ac3b3170d36654f9dc6d05d82f",
    ("pl", "Original", "SSSP"): "c277bba6e1d9149e269b7273222c9e2747d6188bb91be89d43db1b75ea034639",
    ("pl", "Original", "PR"): "23d31becb334b2b23e7f0cc4ea60f69341506870fbc6fad03a56b95e9ba92c86",
    ("pl", "Original", "PRD"): "5905f84e678b063bc8866dd10e345ce110a2706364b98ffbef2ce0768dfc21fe",
    ("pl", "Original", "Radii"): "0040b5f4c5f945c1a070e8a720cd75b136e0b905ae070cff9fec03f905df4506",
    ("pl", "DBG", "BC"): "0fec8e832a54d5176b4f5a3ebaf54c9a07f937b11442ff1e1288e9177547c64c",
    ("pl", "DBG", "SSSP"): "976463e69a4501b9899b2f5c481525d271bf388a6399296f775d25ca87434c1a",
    ("pl", "DBG", "PR"): "26734cb752329101322673eae16a4f03eb90c332df599b1bc6f69ac06e36637e",
    ("pl", "DBG", "PRD"): "7d57342f90ddcb5607cdf5e70901df91294494b16fbe19973dafb3a473f64523",
    ("pl", "DBG", "Radii"): "48c88f56f750e5e9c5b86cad0648f205166d60ecf22ee36ec949916faeb26df2",
    ("pl", "Gorder", "BC"): "94b4d715e3f6c971a3f4ddd61998e3f10723ee4fabcd8d1b05da2bd5747faaf0",
    ("pl", "Gorder", "SSSP"): "312fd9c4062cc00f3c680c8625332f2b43076758bcb99b680696489e137a33e9",
    ("pl", "Gorder", "PR"): "6c5215a871e40d799036a3651314b5faab86660ee908b95d4cc71e4830638890",
    ("pl", "Gorder", "PRD"): "8691ad2bfc84d7958d27011e6bf7dd2b8587c39e286b1c237aa56caa8e296ecb",
    ("pl", "Gorder", "Radii"): "ad32a1348d4ab32ff34d583880691b89a0634358db7c3c7662ac39e295f119e6",
    ("tw", "Original", "BC"): "4680caa70f999d2e45319e33c436661e9b64d295b5ab48ff0994fd1c07b1c340",
    ("tw", "Original", "SSSP"): "fcf8e7a9b3b6e44625e972800be2e54434030a88778dca2527edd011257c346b",
    ("tw", "Original", "PR"): "8b729126dca46c7fd59f66ca3f2eec1e244c44e98c7cba23375692fff29d569e",
    ("tw", "Original", "PRD"): "8bad59fb3f8f83248f2e9b61d3d3655f60acfb8b44d4d7fa225e36b26ea0f252",
    ("tw", "Original", "Radii"): "2c0e584dfc68c90b6dbf89fda652bd5d07b80adf01ab44ec955f1bf578e34057",
    ("tw", "DBG", "BC"): "f12cd3c1df5d20fa269f98406f8e143c957ccfe69987231a9d4690a1121b6467",
    ("tw", "DBG", "SSSP"): "2bff46bedfffd6b50156811b1cb31c5e62c8f00b8f4ee91809b2bfa3ea7b7353",
    ("tw", "DBG", "PR"): "f6b5492bf0afb99d39fd81b5f3c99667238c40bf6c32367c4c942601b4786329",
    ("tw", "DBG", "PRD"): "6facc32b6435aaff3dfdca360d261c4ae755b28d49239c1e8e687de180f242d9",
    ("tw", "DBG", "Radii"): "1dcbd989a9b3f800ed0740143da6580c72894ab43e55fd3d7408f9b566888fe0",
    ("tw", "Gorder", "BC"): "27bdcfdd6bb793845634a2ee6fbc4d1d7af7c4c2439de56141d4ce1ad7405f4e",
    ("tw", "Gorder", "SSSP"): "6c53882bc8b72fa5b36bdb4be7268341e9e8abd669fbe9d7a07d0eeffe5a80de",
    ("tw", "Gorder", "PR"): "d106da91f9f7ff773accdbb9836bad8290cb79a37563149dfbd58932be6d4c7c",
    ("tw", "Gorder", "PRD"): "ee95d1b0dedd9ebbdd3db9940b4b357a9a7ad154a4a0cd2f5ca493f0cf87a521",
    ("tw", "Gorder", "Radii"): "4ad64bff8b179644fe04490ad7cf69b10f6ba3fd6027c25e7d7137791032f1d2",
    ("sd", "Original", "BC"): "333f0b6750ec7f1ffc95aac6b3647ccad198bf8c31c73b844453639d94f0d971",
    ("sd", "Original", "SSSP"): "880689414d3c25f28d75f6f958cc1d92e9fcb7e8ec076990d51129b3f2773ae6",
    ("sd", "Original", "PR"): "3882df80bbe81afeee236b47788bfddee7e07f1eada7ccfd3afad26a88967888",
    ("sd", "Original", "PRD"): "5bb5dbfdf348a9321cb1ade4c226c470f72582cf431e41404d306592d4f402d9",
    ("sd", "Original", "Radii"): "95a2b4dddde2916ac7c7d75d058423124b8d527801f26c5728f355ca22002a41",
    ("sd", "DBG", "BC"): "d4a2dd5ed2e27b46aa4ccbea4cedd4e90c17d94d41de852eff0fb98b0513829c",
    ("sd", "DBG", "SSSP"): "70f0120dd848ad7cbae34a1e31f8645566897887e62c0994f731cf6f58ac51b9",
    ("sd", "DBG", "PR"): "17bf4085a81a5569592d5a1f1c7262e920d00fd27f0c81c69d76cffddd12738a",
    ("sd", "DBG", "PRD"): "1b523997baff773ea518e7c97bf40b5a3ca738e27a64df0ef9c2c32bf5936d5b",
    ("sd", "DBG", "Radii"): "0e1813711f3fec47548715ce0e904f8d8b764725d8b1e4e6302ab4b10b55306b",
    ("sd", "Gorder", "BC"): "190b5f39776467ece09deeb82667a0057da51726ad168e9cde99d94ea0690d55",
    ("sd", "Gorder", "SSSP"): "992fff78212f994b9e22a8326b4e647363e5ea4763a0d8e1f7184736a17a9db9",
    ("sd", "Gorder", "PR"): "9db3a5908b2fc9237059f883a2187a4d53ef7ffc1a7eba3874cfc12f34ae6282",
    ("sd", "Gorder", "PRD"): "fc2524a150be7d520aee25a80a343d99478efe0bbe2b98370eedb2291207b0e7",
    ("sd", "Gorder", "Radii"): "5e21cc4f381bc0055ab96454ea5d0abd965d6879c58a7a517fa044ef461e5100",
    ("lj", "Original", "BC"): "b85ee2bbdcf0f5573b67ea5899b59a4137726e9bc5a92bd5956e81c8c480eb11",
    ("lj", "Original", "SSSP"): "73d557be7aeb6e21ba93b9791fc4f653fcc1576be97c2d4b27a423bb34fb6ac1",
    ("lj", "Original", "PR"): "97a3bad6ff14f1afff84ad1fe028f03f431d13c7a78975fc60328b2232719b0c",
    ("lj", "Original", "PRD"): "aeae83fe418d5b19b7a600ede0f46c272a0b83519c2610e1020441c747423cc2",
    ("lj", "Original", "Radii"): "613859af0fd25f3c804d33b0dc1c4db787c7775e8ccc7e2c8bd37759647eb033",
    ("lj", "DBG", "BC"): "36ed89063b9bd588e63759a8473d7efde281b06125de0792c6214dd076bef4f5",
    ("lj", "DBG", "SSSP"): "dc24965a95e29f8d824dba715bb26bf8bc9dd215e0293f337549842163ab3114",
    ("lj", "DBG", "PR"): "1923c118ceba0bec6125a93013656a6372791e870ef291513cb07a99e52b152d",
    ("lj", "DBG", "PRD"): "db41a3941b871b0005ecaaf4c8f00715802738b42ee72fb5a01ca67c32bc60e0",
    ("lj", "DBG", "Radii"): "66b54788c9fe326307926b45acd6f3366a09c0c59fcc7d88388ff46201aa7482",
    ("lj", "Gorder", "BC"): "bdaa674bfb9fa3fe82e98c2d6c9223d7523c2895c7a04bc6a198f644663473ed",
    ("lj", "Gorder", "SSSP"): "9f28a548959aeb43ca45b2c5f86a38684b56768ce74bf147ededa07c3e348b0b",
    ("lj", "Gorder", "PR"): "4766f9766f58b6fa3a849965cfb85c56c6ee4b6d68edf9529813a27caebe1d8f",
    ("lj", "Gorder", "PRD"): "5748396d482008d6ebedef63b552b9c1ebc8856cb15155d1456f06b64fb21e53",
    ("lj", "Gorder", "Radii"): "4d279891213d09a05f8790af387cbaa00b696a4aaf7e47fe341ea55274208306",
    ("wl", "Original", "BC"): "72b14280169e1cda4f906659490dee1f6ea36bf714907d2e68796b3f7add603f",
    ("wl", "Original", "SSSP"): "de10c9ded317fd02c81e582f62abb2649ffdb414b1c76385361ed75109fd4196",
    ("wl", "Original", "PR"): "1231ea36640c70e9e695f451163d6f73baf51488338e3baea639547efa539a6f",
    ("wl", "Original", "PRD"): "d82bb1d31f954234ca623546d13bf408693f416f100b5a600a86fbeaa32145b6",
    ("wl", "Original", "Radii"): "8322b2e17748ac1cee6817373737528762e98d5fbf869ffcd7415097a2fd356d",
    ("wl", "DBG", "BC"): "aa855b67c572209ef2e772cef62baaf892295a87298ea2cbad3ce5a0a366c47f",
    ("wl", "DBG", "SSSP"): "360d4b8ec0356ff5ef53a24314200bfc3ff85862913c227a089a7a1f52b2f7b5",
    ("wl", "DBG", "PR"): "aad5145fc0360228ae6e41bf62947e66ae14ca0bca9a98166f01f6b265913884",
    ("wl", "DBG", "PRD"): "bd51c0665337221321a961abbd178ed0da0eafcfc10e65ad0e9eb662339ca5b5",
    ("wl", "DBG", "Radii"): "5d33212013044f3d7b82e642fa658e5685ab9a244d067a15504c12e11dbda1df",
    ("wl", "Gorder", "BC"): "ef9cac95b308719fd0c8ad91715550a53567b43e53f3db4ee0db53192fc1fff6",
    ("wl", "Gorder", "SSSP"): "3ab07b72b8654b6fb1787907e2677854e9927273a72ccecc98b2f4bc4bc8daec",
    ("wl", "Gorder", "PR"): "3936413fb14f7fe8f008e7b4f170d60338aab5497cecc417a314f966842decf6",
    ("wl", "Gorder", "PRD"): "79a2a8ea236f887d5232acbfdc495d30cca6b2688a758cec63014ceae2422829",
    ("wl", "Gorder", "Radii"): "362aea31c9f6ce0f5549aefcdc581b6f9920511b3f42875dad61e75fb88ce83b",
    ("fr", "Original", "BC"): "e027cf85a99b71e7c46cf39f792e46729ed2b930abfe08b5445696f5db0f28f1",
    ("fr", "Original", "SSSP"): "b3566093a5ee4ce847c023ece5340c5ce3e1df28afa3389fa0706b8d765b70de",
    ("fr", "Original", "PR"): "7a3848911ed85027e69f195ee40cc77b9acb652902110ffdd4ac97bc7be22e1c",
    ("fr", "Original", "PRD"): "76c3851daf5e9764e7c93baf706a1331c58ccab196fe7f29078b4d6b45f41300",
    ("fr", "Original", "Radii"): "76bddcda96973f06cfc58864ad2619ad2bf5ba7dc528a4a5515c3725ebdc9a91",
    ("fr", "DBG", "BC"): "215b5be071ca6c9fbb9b8c56ddaf85f9af026de2ef0b625cce539590072d1f36",
    ("fr", "DBG", "SSSP"): "6a613d5bbe88ccd06b2f22c2766063f2b5052dbb513916b451c1662834f5ad76",
    ("fr", "DBG", "PR"): "2b85a1ceaac23a1f1b8145dea5fe72cdf0dbb4b888a239499fb4b98046e4fd5b",
    ("fr", "DBG", "PRD"): "3711cf11b6f51bbdb095fdfe76ed30979d4dfb5298452a23120de4ff2b7d0857",
    ("fr", "DBG", "Radii"): "585d9051bb03067d6ae3672d7b64edda61d655ccd4817d98c56d6db1ec772185",
    ("fr", "Gorder", "BC"): "983b06028f8e2fa45b2189b554dd3c01fec42897dc8b7764456e4369e64c604c",
    ("fr", "Gorder", "SSSP"): "93c15e70b32e20214ad2f0d66810a9cf1c5bf915a3d576942391abf03445fc21",
    ("fr", "Gorder", "PR"): "e6c993cd09cda17998d8adcb3c4f0480d9e51fd535a08ee2c2617bf05420a2b4",
    ("fr", "Gorder", "PRD"): "e5e335711c588bd1e1451bcd150e81e1e8197362a391bca35987fad086bebdf2",
    ("fr", "Gorder", "Radii"): "aa1f92b214ae49bc115a858c40fd77fe3de0d5b1d2e2e5742e6dab6eca678b94",
    ("mp", "Original", "BC"): "b035d8a18c6e1d0ae412325af1b6dcfa3769a2479d1c1f704b2410e71dde2b5a",
    ("mp", "Original", "SSSP"): "65dc8db5177ff1de73cb4140c052ddd0904a5e4bec0d975894342bb5113d9f79",
    ("mp", "Original", "PR"): "076ec4f0100f4e781c0fb202ec424bbbbd9e47a849d6ec0ed8c7de4527dd3d8e",
    ("mp", "Original", "PRD"): "ee02f9b927a8fcaade0f924d555c75f564bcbafcb90c4292fd98480a08e3f4e3",
    ("mp", "Original", "Radii"): "d6dda1a625cbd8ad564eb26274b8693eb773232bf7daa26b10fbfe40ecb92e6c",
    ("mp", "DBG", "BC"): "37e51f7fa87c92d3f6b9277a617bfa9494a9b00f5cc0b17a6f9a8f5de2a3fba5",
    ("mp", "DBG", "SSSP"): "89d0f1a389c6b23f8699e682f6d9b2b8a981dcba86bd6eb730d116314b3495e0",
    ("mp", "DBG", "PR"): "63e27814697ae1a12496a503b91565acc9886e98e8e1dcc8ccf1986dd7059f16",
    ("mp", "DBG", "PRD"): "20a1342857793047e47b01e0cafd7c8bd30913494aced070070a5b4c5b2cf01f",
    ("mp", "DBG", "Radii"): "c2ad7b0b6d428aa8e78433da4c578f6472fa0c9a4a46fcfbdcabdf93c733f7de",
    ("mp", "Gorder", "BC"): "bfa25cbf0a5c0946aec20ab6ed4a06847134b9d82ddbda8d6bc03a8d6244aa8d",
    ("mp", "Gorder", "SSSP"): "1fb6138e4228f974fb7faebca0df00a2e7fd040296e51512576f87d07ae318ed",
    ("mp", "Gorder", "PR"): "df7a7165b00196739f30394603d4de016998f4fcb77c00948c2aa01e55112cae",
    ("mp", "Gorder", "PRD"): "d6579d6678fd1c84dcd5049f6d1d98c94e050a6f5678d8fa1cf76adbf5e9a2be",
    ("mp", "Gorder", "Radii"): "dd0797b4e5b745bef66ccad8467317bb0a98e83e7da0cc0fae6405ca984a325e",
    ("uni", "Original", "BC"): "db77541b1a54c698ba6f25be522db6cf94a04304210d5f79c384b6871db6d3d1",
    ("uni", "Original", "SSSP"): "f4556fc692ba03f4e422663e61da08ac36b14adb0bf2d845bb3d26283a129aac",
    ("uni", "Original", "PR"): "b8afaaa2a1950db288d54cc445a0d4fec5de51e0def9106ddf7d77ee69f48b26",
    ("uni", "Original", "PRD"): "0c9c4fab18ff1dc43ba2823c76fe2bd0753b8a40597a3c225252922b506f0874",
    ("uni", "Original", "Radii"): "2b6d61d1d4747a69e0bd0e449b9a44e8971cbfadfd59978d2d0895acb39235e7",
    ("uni", "DBG", "BC"): "88e7f5b96956eeb6bcf3fcaacc2f49ab32718532ba9ee724053ba30439913c11",
    ("uni", "DBG", "SSSP"): "59ec35717a1ad7c2281b49f79bdb70adc7c185d514ec409be59657b9b8da2449",
    ("uni", "DBG", "PR"): "d396f73b97fb37ef9ff9a92745e027f669e0174375581b5ada091ae4c452b3ca",
    ("uni", "DBG", "PRD"): "b0a6c32ac8851f58c556e49b7bcce46844c8bc094e1c0b25906b9ce1f345e4c1",
    ("uni", "DBG", "Radii"): "2842756b34907e31ee17bbf7e8939f85432e1f740d6b6593374f96363def2890",
    ("uni", "Gorder", "BC"): "ebefbb39f9d3d20ed9dbc46b58b0a7dcc8adad7039ad8f526a8e1b72864f5d5b",
    ("uni", "Gorder", "SSSP"): "32511412bc1e6d150c478bf2c840ece5a4897875337f1104f67873a48e05ae70",
    ("uni", "Gorder", "PR"): "ccfb66a912f338e41154b2e9e6bc7e018d0b04e383ebb06b04de1ccd415377cb",
    ("uni", "Gorder", "PRD"): "4e71befddd8fe32a89895bcada21d5e5aedd3ce39254557cfe19f7b90d5486e3",
    ("uni", "Gorder", "Radii"): "b35651341bd0ab6f8a7d6a9aa13a361a148a2647a289876e48ffe7b80cc14635",
    ("road", "Original", "BC"): "533f217d189d8c8236fa9a54c813adb275461102b94316b18f3c77d4f2111f26",
    ("road", "Original", "SSSP"): "187774693aef1cdc8e925ec2df440a8b9a0b57fa056d141f483cfc1b649046ff",
    ("road", "Original", "PR"): "99230614d0b91efd840b1f8d6b30956826db8059f96f725b4307e313911634c8",
    ("road", "Original", "PRD"): "1d9c0bd92846aa49c81977c45de911225158a683d5dddc4627eee970e2fb7156",
    ("road", "Original", "Radii"): "9f6d6f1e52a885d87b086f3b3c4688c364dfeb98dd183ee4ec3da0ef68c11862",
    ("road", "DBG", "BC"): "d06075627910326c9f0b6da6db670a34efbc23989fea0f077507ddf5db4b93fe",
    ("road", "DBG", "SSSP"): "84b7fba4e875f31087446fea50478606beef4733ff5e34f463e14b09f7b14b03",
    ("road", "DBG", "PR"): "3904840d2ac76227b70ea0d58c27321cfae5abc710dbe171398f869b2030ec89",
    ("road", "DBG", "PRD"): "a9caa81d1c47a274dfe3178f212fd1dfdd9a30bf08bb09a6a29525c9a9fc76ea",
    ("road", "DBG", "Radii"): "4eb13c8281f0d29c3a19f211fc616336adb571825c02b1347265ae6aef6bd7a2",
    ("road", "Gorder", "BC"): "03d98c20e4f136accf79103c59f02e94007fc6d74e832766cfd0c4c6ff040638",
    ("road", "Gorder", "SSSP"): "42fbd25e67035b45e0179a6eda8ec0f661265b19c9b116b1b5a10667fef22770",
    ("road", "Gorder", "PR"): "a75eaf3231596d8d057a48981e2607d7ab9bf041af4eda6e7eb67d3733d491e2",
    ("road", "Gorder", "PRD"): "2965dd54152408d2589780062aaee8482241947b77f7c7c96fff818c724de840",
    ("road", "Gorder", "Radii"): "2bed548e3ff90af6b06db4d1753b8e146c7dc881713fcc4ce4d5ce6956fe18d6",
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
    assert (trace.blocks.dtype, trace.writes.dtype, trace.cores.dtype) == (
        np.uint32,
        np.bool_,
        np.uint8,
    )
    digest = hashlib.sha256()
    for array, dtype in (
        (trace.blocks, np.int64),
        (trace.writes, np.bool_),
        (trace.cores, np.int64),
    ):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    digest.update(np.int64(trace.accesses).tobytes())
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
