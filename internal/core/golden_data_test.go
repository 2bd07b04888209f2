package core_test

// goldenOutcomes are the rows recorded at the parent commit (ae82901)
// that the driver reproduces bit for bit.
var goldenOutcomes = []goldenRow{
	{"cg-lossy/sync/noguard/fixed/seed1", 0x405828e8e18b5402, 69, 52, 2, 5, 1, 0x4032b62627f5af6a, 0x0, 0x402048a71de69ad4, 0, 2, 0, 1419, 0x3e598ad6f4d12c47, 0, 0x0},
	{"cg-lossy/sync/noguard/fixed/seed2", 0x405a33410c9f0b3e, 72, 47, 4, 4, 0, 0x402a9096bb98c7e2, 0x0, 0x40304a0902de00d2, 0, 4, 0, 2892, 0x3e4bb23028ed4f89, 0, 0x0},
	{"cg-lossy/sync/noguard/fixed/seed3", 0x4048fba29c779a6b, 40, 40, 0, 3, 0, 0x4023ee8a71de69ad, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 0, 0x0},
	{"cg-lossy/sync/noguard/fixed/sched", 0x405d421e4f765fd7, 82, 52, 4, 5, 2, 0x4034b6a7ef9db230, 0x0, 0x402c48a71de69ad4, 0, 2, 1, 1419, 0x3e598ad6f4d12c47, 0, 0x0},
	{"cg-lossy/sync/noguard/ctrl/seed1", 0x405714278cc1ce12, 70, 57, 2, 4, 0, 0x402a8fec56d5cfab, 0x0, 0x402047525460aa65, 0, 2, 0, 1393, 0x3e51cf27eb3bd827, 4, 0x402e086ebfa05018},
	{"cg-lossy/sync/noguard/ctrl/seed2", 0x405a333f6930dc8e, 72, 47, 4, 4, 0, 0x402a9089a0275254, 0x0, 0x40304a0902de00d2, 0, 4, 0, 2892, 0x3e4bb23028ed4f89, 8, 0x40293d74842bdf6f},
	{"cg-lossy/sync/noguard/ctrl/seed3", 0x4047525460aa64c3, 40, 40, 0, 2, 0, 0x401a92a305532618, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 2, 0x40376eef7ddf58fe},
	{"cg-lossy/sync/noguard/ctrl/sched", 0x405cad78d4fdf3b6, 85, 54, 4, 4, 2, 0x402ec89a0275254b, 0x0, 0x402c483126e978d5, 0, 2, 1, 1410, 0x3e53e51ecc3c4258, 7, 0x402996a5904dbcbb},
	{"cg-lossy/sync/abft/fixed/seed1", 0x40553b54323c467f, 40, 40, 2, 2, 1, 0x40217fa6d572f2b0, 0x0, 0x4042000000000000, 2, 0, 0, 0, 0x3e4d865537b43006, 0, 0x0},
	{"cg-lossy/sync/abft/fixed/seed2", 0x40595a48033351b2, 40, 40, 4, 3, 0, 0x4023edd2f1a9fbe7, 0x0, 0x404957c5ce30da72, 1, 0, 0, 0, 0x3e4d865537b12913, 0, 0x0},
	{"cg-lossy/sync/abft/fixed/seed3", 0x4048fba29c779a6b, 40, 40, 0, 3, 0, 0x4023ee8a71de69ad, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 0, 0x0},
	{"cg-lossy/sync/abft/fixed/sched", 0x405a1489a0275254, 40, 40, 4, 2, 1, 0x401e90cb295e9e1b, 0x0, 0x404c000000000000, 3, 0, 0, 0, 0x3e4d865537b21bda, 0, 0x0},
	{"cg-lossy/sync/abft/ctrl/seed1", 0x4053e6ca9214f42b, 40, 40, 2, 1, 0, 0x400a941205bc01a3, 0x0, 0x4042000000000000, 2, 0, 0, 0, 0x3e4d865537b598c2, 3, 0x402d78673bb525db},
	{"cg-lossy/sync/abft/ctrl/seed2", 0x405885b7d5534497, 40, 40, 4, 2, 0, 0x401a92a305532618, 0x0, 0x404957c5ce30da72, 1, 0, 0, 0, 0x3e4d865537b12913, 3, 0x4027cd05e1917b74},
	{"cg-lossy/sync/abft/ctrl/seed3", 0x4047525460aa64c3, 40, 40, 0, 2, 0, 0x401a92a305532618, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 2, 0x40376eef7ddf58fe},
	{"cg-lossy/sync/abft/ctrl/sched", 0x4059400000000000, 40, 40, 4, 1, 1, 0x4011483126e978d5, 0x0, 0x404c000000000000, 3, 0, 0, 0, 0x3e4d865537b21bda, 3, 0x4027e1e1b1db448e},
	{"cg-lossy/sync/abft-corrupt/fixed/seed1", 0x405828e8e18b5402, 69, 52, 2, 5, 1, 0x4032b62627f5af6a, 0x0, 0x402048a71de69ad4, 0, 2, 0, 1419, 0x3e598ad6f4d12c47, 0, 0x0},
	{"cg-lossy/sync/abft-corrupt/fixed/seed2", 0x405a33410c9f0b3e, 72, 47, 4, 4, 0, 0x402a9096bb98c7e2, 0x0, 0x40304a0902de00d2, 0, 4, 0, 2892, 0x3e4bb23028ed4f89, 0, 0x0},
	{"cg-lossy/sync/abft-corrupt/fixed/seed3", 0x4048fba29c779a6b, 40, 40, 0, 3, 0, 0x4023ee8a71de69ad, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 0, 0x0},
	{"cg-lossy/sync/abft-corrupt/ctrl/seed1", 0x405714278cc1ce12, 70, 57, 2, 4, 0, 0x402a8fec56d5cfab, 0x0, 0x402047525460aa65, 0, 2, 0, 1393, 0x3e51cf27eb3bd827, 4, 0x402e086ebfa05018},
	{"cg-lossy/sync/abft-corrupt/ctrl/seed2", 0x405a333f6930dc8e, 72, 47, 4, 4, 0, 0x402a9089a0275254, 0x0, 0x40304a0902de00d2, 0, 4, 0, 2892, 0x3e4bb23028ed4f89, 8, 0x40293d74842bdf6f},
	{"cg-lossy/sync/abft-corrupt/ctrl/seed3", 0x4047525460aa64c3, 40, 40, 0, 2, 0, 0x401a92a305532618, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 2, 0x40376eef7ddf58fe},
	{"cg-trad-2shard/sync/noguard/fixed/seed3", 0x404939f8a0902de0, 40, 40, 0, 3, 0, 0x4024e7e28240b780, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 0, 0x0},
	{"cg-trad-2shard/sync/noguard/ctrl/seed3", 0x40477bfb15b573eb, 40, 40, 0, 2, 0, 0x401bdfd8adab9f56, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 2, 0x4037fd7845199692},
	{"cg-trad-2shard/sync/abft/fixed/seed1", 0x405585c957825126, 40, 40, 2, 2, 1, 0x4023d34fffa347e1, 0x0, 0x4042000000000000, 2, 0, 0, 0, 0x3e4d865537b189fc, 0, 0x0},
	{"cg-trad-2shard/sync/abft/fixed/seed2", 0x40596f2bc006ac39, 40, 40, 4, 3, 0, 0x4024e7e28240b780, 0x0, 0x404957c5ce30da72, 1, 0, 0, 0, 0x3e4d865537b12913, 0, 0x0},
	{"cg-trad-2shard/sync/abft/fixed/seed3", 0x404939f8a0902de0, 40, 40, 0, 3, 0, 0x4024e7e28240b780, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 0, 0x0},
	{"cg-trad-2shard/sync/abft/fixed/sched", 0x405a1efec56d5cfb, 40, 40, 4, 2, 1, 0x401fdfd8adab9f56, 0x0, 0x404c000000000000, 3, 0, 0, 0, 0x3e4d865537b21bda, 0, 0x0},
	{"cg-trad-2shard/sync/abft/ctrl/seed1", 0x405426ca9214f42b, 40, 40, 2, 1, 0, 0x400bdfd8adab9f56, 0x0, 0x4042000000000000, 2, 0, 0, 0, 0x3e4d865537adfff7, 3, 0x402e14085df2a8ba},
	{"cg-trad-2shard/sync/abft/ctrl/seed2", 0x4058902cfa994f3e, 40, 40, 4, 2, 0, 0x401bdfd8adab9f56, 0x0, 0x404957c5ce30da72, 1, 0, 0, 0, 0x3e4d865537b12913, 3, 0x40284a6c25dfaabe},
	{"cg-trad-2shard/sync/abft/ctrl/seed3", 0x40477bfb15b573eb, 40, 40, 0, 2, 0, 0x401bdfd8adab9f56, 0x0, 0x0, 0, 0, 0, 0, 0x3e4d865537b122b4, 2, 0x4037fd7845199692},
	{"cg-trad-2shard/sync/abft/ctrl/sched", 0x4059400000000000, 40, 40, 4, 1, 1, 0x4011efec56d5cfab, 0x0, 0x404c000000000000, 3, 0, 0, 0, 0x3e4d865537b21bda, 3, 0x40285cd3901b4efa},
	{"jacobi-lossless/sync/noguard/fixed/seed1", 0x407871226afe52e5, 261, 176, 15, 17, 4, 0x4050771bd2de0f13, 0x0, 0x404d689109d96f78, 0, 14, 0, 8136, 0x3ef485508f66a4a3, 0, 0x0},
	{"jacobi-lossless/sync/noguard/fixed/seed2", 0x4074256fa3b51955, 222, 176, 10, 17, 1, 0x404c73d19d3526d8, 0x0, 0x40435025cfcbef13, 0, 8, 0, 4651, 0x3ef485508f66a4a3, 0, 0x0},
	{"jacobi-lossless/sync/noguard/fixed/seed3", 0x40704322e46fe1b4, 193, 176, 2, 17, 1, 0x404d6770a1fb787c, 0x0, 0x40203b8bac710cb2, 0, 2, 0, 1163, 0x3ef485508f66a4a3, 0, 0x0},
	{"jacobi-lossless/sync/noguard/fixed/sched", 0x407200182a9930be, 209, 176, 5, 17, 2, 0x404e2fa0f9096bbb, 0x0, 0x40322c9eecbfb15b, 0, 3, 1, 1743, 0x3ef485508f66a4a3, 0, 0x0},
	{"jacobi-lossless/sync/noguard/ctrl/seed1", 0x407725df5502e5c1, 260, 176, 14, 14, 1, 0x404855aa78b3d856, 0x0, 0x404b611df0dd1f30, 0, 13, 0, 7554, 0x3ef485508f66a4a3, 25, 0x402739cffc5a3f54},
	{"jacobi-lossless/sync/noguard/ctrl/seed2", 0x4073608140958f4c, 223, 176, 10, 13, 0, 0x404580bac710cb29, 0x0, 0x40435025cfcbef13, 0, 8, 0, 4651, 0x3ef485508f66a4a3, 21, 0x40294ebf10cd65f7},
	{"jacobi-lossless/sync/noguard/ctrl/seed3", 0x40701e34815057aa, 223, 176, 2, 8, 0, 0x403a770a3d70a3d7, 0x0, 0x40203b8bac710cb2, 0, 2, 0, 1163, 0x3ef485508f66a4a3, 10, 0x40383c31fa92aea3},
	{"jacobi-lossless/sync/noguard/ctrl/sched", 0x40716c5f06f69446, 218, 176, 5, 12, 2, 0x4044ea6809d49519, 0x0, 0x40322c9eecbfb15b, 0, 3, 1, 1743, 0x3ef485508f66a4a3, 16, 0x4030dec2fd9f7685},
	{"jacobi-lossless/sync/abft/fixed/seed1", 0x406c13b492975cf3, 178, 178, 10, 12, 3, 0x4045dbdf273e4725, 0x0, 0x0, 10, 0, 0, 0, 0x3ef3ec586f588a08, 0, 0x0},
	{"jacobi-lossless/sync/abft/fixed/seed2", 0x406baf845438a639, 170, 170, 5, 14, 1, 0x4048910255087d8b, 0x0, 0x0, 5, 0, 0, 0, 0x3ef3e8cc0114979c, 0, 0x0},
	{"jacobi-lossless/sync/abft/fixed/seed3", 0x406c70af76228731, 174, 174, 2, 16, 0, 0x404a770a3d70a3d8, 0x0, 0x0, 2, 0, 0, 0, 0x3ef4691ea3954bce, 0, 0x0},
	{"jacobi-lossless/sync/abft/fixed/sched", 0x406b4d06f6944673, 171, 171, 5, 13, 2, 0x4047194af4f0d845, 0x0, 0x0, 5, 0, 0, 0, 0x3ef3f6aaa62de9cc, 0, 0x0},
	{"jacobi-lossless/sync/abft/ctrl/seed1", 0x40695ffb061934cf, 174, 174, 10, 7, 1, 0x403a2d448553cd9f, 0x0, 0x0, 10, 0, 0, 0, 0x3ef3fe71d137829a, 16, 0x4024bf1fb3de6d4a},
	{"jacobi-lossless/sync/abft/ctrl/seed2", 0x406a5bcb9971956e, 174, 174, 5, 10, 1, 0x4041733fc5ac5495, 0x0, 0x0, 5, 0, 0, 0, 0x3ef431fbaf56399e, 15, 0x402e3b5271b62efc},
	{"jacobi-lossless/sync/abft/ctrl/seed3", 0x40690b4a1657e26b, 177, 177, 1, 7, 0, 0x4037282a9930be0e, 0x0, 0x0, 1, 0, 0, 0, 0x3ef3828148f08fa9, 8, 0x403ac97adea0ac16},
	{"jacobi-lossless/sync/abft/ctrl/sched", 0x4069d94e3bcd35a8, 167, 167, 5, 11, 2, 0x40434a6809d49518, 0x0, 0x0, 5, 0, 0, 0, 0x3ef3a668d51eb10c, 15, 0x402dd7b327787010},
	{"gmres-lossy-bound/sync/noguard/fixed/seed1", 0x40608e9a20e733a0, 97, 70, 3, 6, 2, 0x40367121b0616c28, 0x0, 0x40284c56d5cfaace, 0, 3, 0, 1491, 0x3e8dc18ec3c259a2, 0, 0x0},
	{"gmres-lossy-bound/sync/noguard/fixed/seed2", 0x4060cdaa5ae49dca, 95, 70, 4, 6, 0, 0x4033e89a02752546, 0x0, 0x403016872b020c4a, 0, 4, 0, 880, 0x3e8f974022160962, 0, 0x0},
	{"gmres-lossy-bound/sync/noguard/fixed/seed3", 0x4054bcff97247454, 63, 63, 0, 6, 0, 0x4033f3fe5c91d14f, 0x0, 0x0, 0, 0, 0, 0, 0x3e8eaea1fba8cfc0, 0, 0x0},
	{"gmres-lossy-bound/sync/noguard/fixed/sched", 0x4061777c1bda511a, 96, 74, 5, 7, 1, 0x4038476c8b439581, 0x0, 0x403234395810624e, 0, 3, 1, 2040, 0x3e8f439180cb4d10, 0, 0x0},
	{"gmres-lossy-bound/sync/noguard/ctrl/seed1", 0x4066d92773627161, 128, 79, 9, 5, 0, 0x40309cd9e83e425b, 0x0, 0x40415fbc0be5b935, 0, 8, 0, 7446, 0x3e84647e3e7a5778, 12, 0x4024b3b5bcbf5a67},
	{"gmres-lossy-bound/sync/noguard/ctrl/seed2", 0x4060632c32c09252, 95, 70, 4, 5, 0, 0x403094a8c154c986, 0x0, 0x403016872b020c4a, 0, 4, 0, 880, 0x3e8f974022160962, 9, 0x402aaa5aed697035},
	{"gmres-lossy-bound/sync/noguard/ctrl/seed3", 0x40523d42c3c9eecc, 63, 63, 0, 3, 0, 0x4023ea161e4f7660, 0x0, 0x0, 0, 0, 0, 0, 0x3e8eaea1fba8cfc0, 3, 0x403a987834a37d4a},
	{"gmres-lossy-bound/sync/noguard/ctrl/sched", 0x4063c1cd35a8587a, 117, 75, 5, 6, 2, 0x403620e560418937, 0x0, 0x403225bc01a36e2f, 0, 3, 1, 1474, 0x3e8e12969fa1295f, 10, 0x402ab4cb9b7695de},
}

// goldenShardedReads are parent rows too, and the driver reproduces
// them in every field but one: the bytes recoveries read. The parent's
// unguarded failure path counted fti.Info.Bytes per restart (the shard
// payloads), its guarded one the bytes the restore walk read (the
// manifest too); the one path left counts what was read, so each
// checkpoint restart of these rows reads shardManifestBytes more.
var goldenShardedReads = []goldenRow{
	{"cg-trad-2shard/sync/noguard/fixed/seed1", 0x405354c81cefae21, 55, 40, 2, 3, 1, 0x402acb462b0e2fb6, 0x0, 0x4020efec56d5cfab, 0, 2, 0, 4686, 0x3e4d865537b11544, 0, 0x0},
	{"cg-trad-2shard/sync/noguard/fixed/seed2", 0x4057be2a85740934, 65, 40, 4, 3, 0, 0x4024e7e28240b780, 0x0, 0x4030efec56d5cfab, 0, 4, 0, 9372, 0x3e4d865537b12233, 0, 0x0},
	{"cg-trad-2shard/sync/noguard/fixed/sched", 0x40554efec56d5cfb, 59, 40, 4, 3, 1, 0x4026e7e28240b780, 0x0, 0x402cefec56d5cfac, 0, 2, 1, 4686, 0x3e4d865537a41c1d, 0, 0x0},
	{"cg-trad-2shard/sync/noguard/ctrl/seed1", 0x405135c957825126, 52, 40, 2, 2, 0, 0x401bdfd8adab9f56, 0x0, 0x4020efec56d5cfab, 0, 2, 0, 4686, 0x3e4d865537b32c10, 3, 0x402c2f59b1fcf186},
	{"cg-trad-2shard/sync/noguard/ctrl/seed2", 0x4057be2a85740934, 65, 40, 4, 3, 0, 0x4024e7e28240b780, 0x0, 0x4030efec56d5cfab, 0, 4, 0, 9372, 0x3e4d865537b12233, 7, 0x40285c1f1c7ba6e4},
	{"cg-trad-2shard/sync/noguard/ctrl/sched", 0x40582dfd8adab9f6, 70, 40, 4, 3, 1, 0x4026e7e28240b780, 0x0, 0x402cefec56d5cfac, 0, 2, 1, 4686, 0x3e4d865537b1159d, 6, 0x40289f669fb9bd24},
}

// shardManifestBytes is the size of the 2-shard group's manifest.
const shardManifestBytes = 78

// goldenRestartZero names the rows the declared pricing exception
// moves: restart-from-zero costs RecoverySeconds(fti.Info{}) on every
// run (a guarded chain that fell through to rung 3 used to pay nothing,
// an unguarded run always paid), which shifts everything downstream of
// the first such restart. Each now equals its unguarded twin, recorded
// at the parent: a guard whose every attempt is rejected for free is no
// guard at all. (The six abft-corrupt rows that never reach rung 3
// already did.) CHANGES.md lists their values at the parent.
var goldenRestartZero = []string{
	"cg-lossy/sync/abft-corrupt/fixed/sched",
	"cg-lossy/sync/abft-corrupt/ctrl/sched",
}
